package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/eclgen"
	"repro/internal/exec"
)

// testModules keeps the generated file small enough for a unit test.
const testModules = 24

// runOnce runs the benchmark at a short length and returns its stdout
// and the parsed result line.
func runOnce(t *testing.T, workload string, trace int) (string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "5", "--seconds", "0.6",
		"--trace", fmt.Sprint(trace), "--modules", fmt.Sprint(testModules), "--out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace=%d: exit %d\nstderr: %s\nstdout: %s", workload, trace, code, stderr.String(), stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	return stdout.String(), res
}

// TestWorkloadsPrintEveryMetric runs every workload untraced and traced
// and requires each declared metric, with its unit, in the result line
// and on a metric line of the report.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	units := map[string]string{"setup_s": "s", "peak_rss_mb": "MB", "throughput_per_s": "1/s", "op_p50_ms": "ms"}
	for _, l := range layerMetrics() {
		units[l.name] = l.unit
	}
	for _, w := range []string{"compile-cold", "rebuild-warm", "serve-step"} {
		for trace, want := range [][]string{endToEnd, perLayerNames()} {
			t.Run(fmt.Sprintf("%s/trace%d", w, trace), func(t *testing.T) {
				out, res := runOnce(t, w, trace)
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, n := range want {
					m, ok := res.Metrics[n]
					if !ok || m.Unit != units[n] {
						t.Errorf("metric %s: got %+v, want unit %q", n, m, units[n])
					}
					if !strings.Contains(out, fmt.Sprintf("metric %-40s ", n)) {
						t.Errorf("metric %s missing from the report", n)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric
// tables here in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name, &env{}); err != nil {
			t.Error(err)
		}
	}
	for _, e := range spec.EndToEnd {
		got = append(got, e.Name)
	}
	if strings.Join(got, ",") != strings.Join(endToEnd, ",") {
		t.Errorf("end_to_end %v, code prints %v", got, endToEnd)
	}
	want := layerMetrics()
	if len(spec.PerLayer) != len(want) {
		t.Fatalf("%d per_layer metrics, code prints %d", len(spec.PerLayer), len(want))
	}
	for i, l := range want {
		if e := spec.PerLayer[i]; e.Name != l.name || e.Unit != l.unit || e.Better != l.better {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, e, l)
		}
	}
}

// TestColdOracleRejectsCorruptMachine breaks every compiled machine so
// that it re-enters its initial state each instant; the oracle's
// efsm-table versus interp comparison must notice.
func TestColdOracleRejectsCorruptMachine(t *testing.T) {
	d := &driver.Driver{NoCache: true}
	res, err := buildFile(d, eclgen.File(5, oracleSample), true, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkColdSample(res, 5); err != nil {
		t.Fatalf("clean build rejected: %v", err)
	}
	res, err = buildFile(&driver.Driver{NoCache: true}, eclgen.File(5, oracleSample), true, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		m := r.Design.Machine
		for _, s := range m.States {
			s.Root = m.Initial.Root
		}
	}
	if err := checkColdSample(res, 5); err == nil {
		t.Fatal("oracle accepted corrupted machines")
	}
}

// TestWarmOracleRejectsCorruptArtifact corrupts one C artifact of a
// warm vet build; the comparison with the NoCache compile must fail.
func TestWarmOracleRejectsCorruptArtifact(t *testing.T) {
	w := &warmWorkload{env: &env{seed: 5, modules: testModules, workers: 1, work: t.TempDir()}}
	defer w.close()
	if err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.prepareOracle(); err != nil {
		t.Fatal(err)
	}
	res, _, d, err := w.round(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := digestRound(res, d, w.edit.value(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.checkRound(rd); err != nil {
		t.Fatalf("clean round rejected: %v", err)
	}
	res[1][3].Artifacts[driver.TargetC] += "\n"
	if rd, err = digestRound(res, d, w.edit.value(0)); err != nil {
		t.Fatal(err)
	}
	if err := w.checkRound(rd); err == nil {
		t.Fatal("oracle accepted a corrupted C artifact")
	}
}

// TestServeOracleRejectsCorruptEvent flips the outputs of one stepped
// event; replaying the stream on interp must fail.
func TestServeOracleRejectsCorruptEvent(t *testing.T) {
	pool, err := servePool(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pool {
		s := exec.NewSession()
		id, err := s.Open("", p.backend, p.local)
		if err != nil {
			t.Fatal(err)
		}
		events, err := s.StepEvents(id, p.stims[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := replayStream(p, p.stims[0], events); err != nil {
			t.Fatalf("%s: clean stream rejected: %v", p.module, err)
		}
		bad := append([]exec.Event(nil), events...)
		if len(bad[7].Outputs) > 0 {
			bad[7].Outputs = nil
		} else {
			bad[7].Outputs = map[string]string{p.local.Machine.Outputs[0].Name: ""}
		}
		if err := replayStream(p, p.stims[0], bad); err == nil {
			t.Fatalf("%s: oracle accepted a corrupted event", p.module)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{t0: time.Now()}
	tr.spans = []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 60}, // overlaps its sibling
		{ID: 4, Parent: 3, Name: "b", Start: 35, End: 45},
	}
	self := tr.selfTimes()
	if got := self["root"].Self; got != 50 {
		t.Errorf("root self %d, want 50", got)
	}
	if got := self["a"]; got.Self != 30+20 || got.Spans != 2 {
		t.Errorf("a self %+v, want 50 over 2 spans", got)
	}
}
