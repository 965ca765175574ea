// Command perfbench is the repository benchmark. One run sets up one
// workload from a generator seed, measures it for a fixed time, checks
// every output against an oracle, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured
// untraced. With --trace 1 the run is traced instead: it reports every
// per-layer metric, the tracing overhead on the workload's end-to-end
// metrics, and writes the spans and a self-time table under --out.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload compile-cold|rebuild-warm|serve-step \
//	    --seed N --seconds S --trace 0|1 [--modules M] [--out DIR]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 3

// endToEnd lists the end-to-end metrics every untraced run prints, in
// BENCHMARK.json order.
var endToEnd = []string{"setup_s", "peak_rss_mb", "throughput_per_s", "op_p50_ms"}

// env is what every workload is built from.
type env struct {
	seed    int64
	modules int    // modules in the generated mega-file
	workers int    // driver workers and serving clients
	work    string // scratch directory for cache stores
	ndirs   int
}

// freshDir returns a new, empty directory under the run's scratch
// directory.
func (e *env) freshDir(tag string) string {
	e.ndirs++
	dir := filepath.Join(e.work, fmt.Sprintf("%s-%d", tag, e.ndirs))
	return dir
}

// workload is one benchmark workload.
type workload interface {
	// setup prepares the inputs and warm state the loop measures,
	// replacing any earlier set-up.
	setup(tr *tracer) error
	// loop runs operations until the deadline; tr is nil when untraced.
	loop(deadline time.Time, tr *tracer) (*loopStats, error)
	// check runs the oracle over everything the loops produced.
	check() error
	close()
}

// loopStats is one measured loop's outcome.
type loopStats struct {
	attempted, failed int64
	// throughput is work done per second: modules built, or instants
	// stepped.
	throughput float64
	// op is the latency of the workload's unit operation, in ms.
	op dist
	// lines are the workload's own named timings and counts.
	lines []string
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newWorkload(name string, e *env) (workload, error) {
	switch name {
	case "compile-cold":
		return &coldWorkload{env: e}, nil
	case "rebuild-warm":
		return &warmWorkload{env: e}, nil
	case "serve-step":
		return &serveWorkload{env: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want compile-cold, rebuild-warm or serve-step)", name)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "compile-cold, rebuild-warm or serve-step")
	seed := fs.Int64("seed", 1, "generator seed")
	seconds := fs.Float64("seconds", 10, "measured time")
	traced := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	modules := fs.Int("modules", 400, "modules in the generated mega-file")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for scratch stores and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *modules < 8 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: need --seconds > 0, --modules >= 8 and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// Scratch stores are removed when the next run starts, not when
	// this one ends: deleting many files slows the file system's writes
	// for tens of seconds after, and a clean-up at the start falls the
	// same way in every run, before set-up.
	old, err := filepath.Glob(filepath.Join(*out, "work-*"))
	if err == nil {
		for _, dir := range old {
			if err := os.RemoveAll(dir); err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
		}
	}
	work, err := os.MkdirTemp(*out, "work-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	e := &env{seed: *seed, modules: *modules, workers: min(2, runtime.NumCPU()), work: work}
	w, err := newWorkload(*name, e)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer w.close()

	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *traced == 1 {
		res, err = runTraced(stdout, w, e, *name, dur, *out)
	} else {
		res, err = runUntraced(stdout, w, dur)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runUntraced sets the workload up setupReps times, measures it once
// for dur and checks its outputs.
func runUntraced(stdout io.Writer, w workload, dur time.Duration) (*result, error) {
	setups, err := timedSetups(w)
	if err != nil {
		return nil, err
	}
	ls, err := w.loop(time.Now().Add(dur), nil)
	if err != nil {
		return nil, err
	}
	checkErr := w.check()
	m := map[string]metric{
		"setup_s":          {setups.median(), "s"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
		"throughput_per_s": {ls.throughput, "1/s"},
		"op_p50_ms":        {ls.op.median(), "ms"},
	}
	fmt.Fprintf(stdout, "setup: %s\n", setups.describe("s"))
	printLoop(stdout, ls)
	return finish(stdout, m, endToEnd, ls, checkErr)
}

// runTraced measures the workload untraced and then traced, each for a
// third of dur, profiles every layer on the seed's inputs, and reports
// the per-layer metrics plus the tracing overhead.
func runTraced(stdout io.Writer, w workload, e *env, name string, dur time.Duration, out string) (*result, error) {
	tr := newTracer()
	t0 := time.Now()
	if err := w.setup(nil); err != nil {
		return nil, err
	}
	plainSetup := time.Since(t0).Seconds()
	plain, err := w.loop(time.Now().Add(dur/3), nil)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	root := tr.start("e2e.setup", 0, 0)
	err = w.setup(tr)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	tracedSetup := time.Since(t0).Seconds()
	traced, err := w.loop(time.Now().Add(dur/3), tr)
	if err != nil {
		return nil, err
	}
	checkErr := w.check()
	w.close()
	fmt.Fprintln(stdout, "untraced loop:")
	printLoop(stdout, plain)
	fmt.Fprintln(stdout, "traced loop:")
	printLoop(stdout, traced)

	m, err := profileLayers(e, tr)
	if err != nil {
		return nil, err
	}
	m["trace_overhead.setup_s"] = metric{tracedSetup - plainSetup, "s"}
	m["trace_overhead.throughput_per_s"] = metric{traced.throughput - plain.throughput, "1/s"}
	m["trace_overhead.op_p50_ms"] = metric{traced.op.median() - plain.op.median(), "ms"}

	self := tr.selfTimes()
	dir := filepath.Join(out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, e.seed))
	if err := tr.writeSpans(base + ".spans.jsonl"); err != nil {
		return nil, err
	}
	tf, err := os.Create(base + ".selftime.txt")
	if err != nil {
		return nil, err
	}
	writeSelfTable(tf, self)
	if err := tf.Close(); err != nil {
		return nil, err
	}
	writeSelfTable(stdout, self)
	fmt.Fprintf(stdout, "spans: %s.spans.jsonl\n", base)
	traced.attempted += plain.attempted
	traced.failed += plain.failed
	return finish(stdout, m, perLayerNames(), traced, checkErr)
}

func timedSetups(w workload) (dist, error) {
	var setups dist
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return setups, nil
}

func printLoop(stdout io.Writer, ls *loopStats) {
	for _, l := range ls.lines {
		fmt.Fprintln(stdout, l)
	}
	ratio := 0.0
	if ls.attempted > 0 {
		ratio = float64(ls.failed) / float64(ls.attempted)
	}
	fmt.Fprintf(stdout, "fail_ratio %g (%d failed of %d attempted)\n", ratio, ls.failed, ls.attempted)
}

// finish prints the named metrics, requires that every name in want is
// present, and assembles the result line.
func finish(stdout io.Writer, m map[string]metric, want []string, ls *loopStats, checkErr error) (*result, error) {
	for _, n := range want {
		if _, ok := m[n]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "metric %-40s %.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	if checkErr != nil {
		fmt.Fprintln(stdout, "oracle: FAIL:", checkErr)
	} else {
		fmt.Fprintln(stdout, "oracle: ok")
	}
	if ls.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return &result{Correct: checkErr == nil, Attempted: ls.attempted, Failed: ls.failed, Metrics: m}, nil
}

// peakRSSMB is the process's maximum resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
