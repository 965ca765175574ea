package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/analyze"
	"repro/internal/ast"
	"repro/internal/cache"
	"repro/internal/cgen"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/cval"
	"repro/internal/driver"
	"repro/internal/eclgen"
	"repro/internal/efsm"
	"repro/internal/efsm/table"
	"repro/internal/exec"
	"repro/internal/kernel"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/pipeline"
	"repro/internal/pp"
	"repro/internal/sem"
	"repro/internal/simd"
	"repro/internal/source"
)

// layerMetric is one per-layer metric and the end-to-end metric (and
// workload) it should move.
type layerMetric struct {
	name, unit, better, moves string
}

// profiledPhases are the pipeline phases whose cache counters a traced
// run reports.
var profiledPhases = []pipeline.Phase{
	pipeline.PhaseParse, pipeline.PhaseSem, pipeline.PhaseLower, pipeline.PhaseEFSM,
	pipeline.PhaseAnalyze, pipeline.PhaseAnalyzeFile,
	pipeline.PhaseEmitC, pipeline.PhaseEmitEsterel, pipeline.PhaseEmitTable,
}

// serveDepths are the serving layers stepped at each batch size, from
// the session down the stack out to loopback HTTP.
var serveDepths = []string{"exec.session_step", "simd.handler_step", "simd.http_step"}

// profileBatches are the batch sizes the serving depths are timed at.
var profileBatches = []int{1, 64}

// layerMetrics lists every per-layer metric, in BENCHMARK.json order.
func layerMetrics() []layerMetric {
	cold := "compile-cold throughput_per_s, op_p50_ms"
	warm := "rebuild-warm throughput_per_s, op_p50_ms (warm_build, warm_vet)"
	edit := "rebuild-warm throughput_per_s, op_p50_ms (edit_vet)"
	step := "serve-step throughput_per_s, op_p50_ms"
	open := "serve-step throughput_per_s (open share of a conversation)"
	out := []layerMetric{
		{"parser.ms", "ms", "lower", cold + "; " + edit},
		{"sem.ms", "ms", "lower", cold + "; " + edit},
		{"lower.ms", "ms", "lower", cold + "; " + edit},
		{"compile.ms", "ms", "lower", cold},
		{"efsm.minimize_ms", "ms", "lower", cold},
		{"table.compile_ms", "ms", "lower", cold},
		{"cgen.c_ms", "ms", "lower", cold},
		{"kernel.esterel_ms", "ms", "lower", cold},
		{"analyze.module_ms", "ms", "lower", cold + "; " + edit},
		{"analyze.file_ms", "ms", "lower", cold},
		{"compile.states", "count", "lower", cold},
		{"efsm.states_min", "count", "lower", cold},
		{"analyze.findings", "count", "higher", cold},
		{"cache.write_ms", "ms", "lower", cold},
		{"cache.bytes", "bytes", "lower", cold},
		{"cache.open_ms", "ms", "lower", warm},
		{"cache.get_phase_us", "us", "lower", warm},
		{"cache.bytes_read", "bytes", "lower", warm},
		{"pipeline.decode_machine_ms", "ms", "lower", warm},
		{"pipeline.decode_lowered_ms", "ms", "lower", warm},
		{"driver.self_ms", "ms", "lower", warm},
	}
	for _, ph := range profiledPhases {
		out = append(out,
			layerMetric{fmt.Sprintf("pipeline.%s.mem_hits", ph), "count", "higher", warm},
			layerMetric{fmt.Sprintf("pipeline.%s.disk_hits", ph), "count", "higher", warm},
			layerMetric{fmt.Sprintf("pipeline.%s.rebuilds", ph), "count", "lower", warm + "; " + edit},
			layerMetric{fmt.Sprintf("pipeline.%s.shared", ph), "count", "higher", warm})
	}
	out = append(out,
		layerMetric{"table.step_slots_us", "us", "lower", step},
		layerMetric{"table.step_slots_allocs", "allocs/instant", "lower", step})
	for _, b := range profileBatches {
		for _, d := range serveDepths {
			out = append(out,
				layerMetric{fmt.Sprintf("%s_us.b%d", d, b), "us", "lower", step},
				layerMetric{fmt.Sprintf("%s_allocs.b%d", d, b), "allocs/instant", "lower", step})
		}
	}
	return append(out,
		layerMetric{"driver.buildone_hit_ms", "ms", "lower", open},
		layerMetric{"exec.session_open_ms", "ms", "lower", open},
		layerMetric{"trace_overhead.setup_s", "s", "lower", "every workload setup_s (traced minus untraced)"},
		layerMetric{"trace_overhead.throughput_per_s", "1/s", "higher", "every workload throughput_per_s (traced minus untraced)"},
		layerMetric{"trace_overhead.op_p50_ms", "ms", "lower", "every workload op_p50_ms (traced minus untraced)"})
}

func perLayerNames() []string {
	var names []string
	for _, l := range layerMetrics() {
		names = append(names, l.name)
	}
	return names
}

// profileLayers calls every layer's functions directly, one worker, on
// the seed's inputs, inside spans, and turns the spans' self-times and
// the layers' counts into the per-layer metrics.
func profileLayers(e *env, tr *tracer) (map[string]metric, error) {
	m := map[string]metric{}
	src := eclgen.File(e.seed, e.modules)
	fe, err := profileCompile(tr, src, m)
	if err != nil {
		return nil, fmt.Errorf("compile layers: %w", err)
	}
	vetMS, err := profileWarm(tr, e, src, fe, m)
	if err != nil {
		return nil, fmt.Errorf("warm layers: %w", err)
	}
	if err := profileServe(tr, e, m); err != nil {
		return nil, fmt.Errorf("serve layers: %w", err)
	}
	self := tr.selfTimes()
	selfMS := func(name string) float64 { return ms(self[name].Self.Seconds()) }
	for _, n := range []string{"parser", "sem", "lower", "compile"} {
		m[n+".ms"] = metric{selfMS(n), "ms"}
	}
	for _, n := range []string{"efsm.minimize", "table.compile", "cgen.c", "kernel.esterel", "analyze.module", "analyze.file",
		"cache.write", "cache.open", "pipeline.decode_machine", "pipeline.decode_lowered"} {
		m[n+"_ms"] = metric{selfMS(n), "ms"}
	}
	gp := self["cache.get_phase"]
	m["cache.get_phase_us"] = metric{1e3 * selfMS("cache.get_phase") / float64(max(gp.Spans, 1)), "us"}
	// The warm vet build's time at one worker, less the layer work it
	// is made of, replayed above on the same inputs: front end,
	// phase-store reads and machine decodes. The rest is the driver's.
	replayed := selfMS("parser") + selfMS("sem") + selfMS("lower") + selfMS("cache.get_phase") + selfMS("pipeline.decode_machine")
	m["driver.self_ms"] = metric{vetMS - replayed, "ms"}
	return m, nil
}

// frontEnd is what the compile profile leaves for the warm profile.
type frontEnd struct {
	file     *ast.File
	lows     map[string]*lower.Result
	structFP map[string]string
}

// profileCompile runs the pipeline's phase functions in pipeline order
// over every module of src, as a cold build to C, Esterel and table
// with analysis on does.
func profileCompile(tr *tracer, src string, m map[string]metric) (*frontEnd, error) {
	root := tr.start("layers.compile", 0, 0)
	defer tr.end(root)
	var diags source.DiagList
	var file *ast.File
	tr.do("parser", root, 0, func() {
		expanded := pp.New(&diags, pp.MapResolver(nil)).Expand(source.NewFile(megaPath, src))
		file = parser.ParseFile(expanded, &diags)
	})
	if diags.HasErrors() {
		return nil, diags.Err()
	}
	var info *sem.Info
	tr.do("sem", root, 0, func() { info = sem.Analyze(file, &diags) })
	if diags.HasErrors() {
		return nil, diags.Err()
	}
	opts := core.Options{}
	prog := core.NewProgram(file, info, &diags, opts)
	fe := &frontEnd{file: file, lows: map[string]*lower.Result{}, structFP: map[string]string{}}
	states, statesMin, findings := 0, 0, 0
	for i, mod := range file.Modules() {
		req := int64(i + 1)
		span := tr.start("layers.module", root, req)
		var mdiags source.DiagList
		var low *lower.Result
		var mach, minimal *efsm.Machine
		var err error
		tr.do("lower", span, req, func() { low, err = lower.Lower(info, mod.Name, opts.Policy, &mdiags) })
		if err != nil {
			return nil, fmt.Errorf("lower %s: %w", mod.Name, err)
		}
		tr.do("compile", span, req, func() { mach, err = compile.CompileWith(low, opts.Compile) })
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", mod.Name, err)
		}
		tr.do("efsm.minimize", span, req, func() { minimal, _ = efsm.Minimize(mach) })
		tr.do("table.compile", span, req, func() {
			var p *table.Program
			if p, err = table.Compile(minimal); err == nil {
				_ = p.Listing()
			}
		})
		if err != nil {
			return nil, fmt.Errorf("table %s: %w", mod.Name, err)
		}
		tr.do("cgen.c", span, req, func() { _ = cgen.GenerateC(mach) })
		tr.do("kernel.esterel", span, req, func() { _ = kernel.EsterelString(low.Module) })
		d := &core.Design{Program: prog, Lowered: low, Machine: mach}
		var fs []analyze.Finding
		tr.do("analyze.module", span, req, func() { fs = analyze.Analyze(d) })
		tr.end(span)
		states += len(mach.States)
		statesMin += len(minimal.States)
		findings += len(fs)
		fp, _, err := pipeline.Fingerprints(file, low)
		if err != nil {
			return nil, err
		}
		fe.lows[mod.Name], fe.structFP[mod.Name] = low, fp
	}
	var ffs []analyze.Finding
	tr.do("analyze.file", root, 0, func() { ffs = analyze.AnalyzeFile(info) })
	m["compile.states"] = metric{float64(states), "count"}
	m["efsm.states_min"] = metric{float64(statesMin), "count"}
	m["analyze.findings"] = metric{float64(findings + len(ffs)), "count"}
	return fe, nil
}

// profileWarm warms a store the way rebuild-warm does, runs one round
// on one worker for its phase counters and build times, then replays
// the store traffic: every snapshot the warming wrote into an empty
// store, and every read of the round's warm vet build from a fresh
// handle. It returns the vet build's time in ms.
func profileWarm(tr *tracer, e *env, src string, fe *frontEnd, m map[string]metric) (float64, error) {
	w := &warmWorkload{env: e}
	if err := w.setup(nil); err != nil {
		return 0, err
	}
	res, took, d, err := w.round(0, 1, tr)
	if err != nil {
		return 0, err
	}
	for i := range res {
		if n := countFailed(res[i]); n > 0 {
			return 0, fmt.Errorf("%s: %d modules failed", stepNames[i], n)
		}
	}
	phases := d.CacheStats().Phases
	for _, ph := range profiledPhases {
		c := phases[ph]
		m[fmt.Sprintf("pipeline.%s.mem_hits", ph)] = metric{float64(c.MemHits), "count"}
		m[fmt.Sprintf("pipeline.%s.disk_hits", ph)] = metric{float64(c.DiskHits), "count"}
		m[fmt.Sprintf("pipeline.%s.rebuilds", ph)] = metric{float64(c.Rebuilds), "count"}
		m[fmt.Sprintf("pipeline.%s.shared", ph)] = metric{float64(c.Shared), "count"}
	}

	root := tr.start("layers.warm", 0, 0)
	defer tr.end(root)
	var store *cache.Store
	tr.do("cache.open", root, 0, func() { store, err = cache.Open(w.dir) })
	if err != nil {
		return 0, err
	}
	// Reads: every key the warm vet build served from disk.
	var diskKeys []string
	lowerKey, efsmKey := map[string]string{}, map[string]string{}
	for _, r := range res[1] {
		for _, p := range r.Phases {
			if p.Status == pipeline.StatusDiskHit {
				diskKeys = append(diskKeys, p.Key)
			}
			switch p.Phase {
			case pipeline.PhaseLower:
				lowerKey[r.Module] = p.Key
			case pipeline.PhaseEFSM:
				efsmKey[r.Module] = p.Key
			}
		}
	}
	sort.Strings(diskKeys)
	diskKeys = slices.Compact(diskKeys)
	read := int64(0)
	for _, key := range diskKeys {
		_, names, ok := storeBlobNames(store, key)
		if !ok {
			return 0, fmt.Errorf("phase key %s is not in the store", key)
		}
		var pe *cache.PhaseEntry
		tr.do("cache.get_phase", root, 0, func() { pe, ok = store.GetPhase(key, names) })
		if !ok {
			return 0, fmt.Errorf("phase key %s did not read back", key)
		}
		for _, b := range pe.Blobs {
			read += int64(len(b))
		}
	}
	m["cache.bytes_read"] = metric{float64(read), "bytes"}

	// Decodes: each module's lowered and machine snapshots.
	for mod, lk := range lowerKey {
		kernelBlob, err := singleBlob(store, lk)
		if err != nil {
			return 0, err
		}
		machineBlob, err := singleBlob(store, efsmKey[mod])
		if err != nil {
			return 0, err
		}
		tr.do("pipeline.decode_lowered", root, 0, func() { _, err = pipeline.DecodeLowered([]byte(kernelBlob)) })
		if err != nil {
			return 0, fmt.Errorf("%s: %w", mod, err)
		}
		tr.do("pipeline.decode_machine", root, 0, func() {
			_, err = pipeline.DecodeMachine([]byte(machineBlob), fe.lows[mod], fe.structFP[mod])
		})
		if err != nil {
			return 0, fmt.Errorf("%s: %w", mod, err)
		}
	}

	// Writes: every snapshot the store holds, into an empty store.
	written, err := replayWrites(tr, root, store, e.freshDir("layers-write"), res)
	if err != nil {
		return 0, err
	}
	m["cache.bytes"] = metric{float64(written), "bytes"}
	return ms(took[1].Seconds()), nil
}

// replayWrites copies every phase snapshot the results name from src
// into a new store at dir, timing only the writes.
func replayWrites(tr *tracer, parent int, src *cache.Store, dir string, res [3][]driver.Result) (int64, error) {
	dst, err := cache.Open(dir)
	if err != nil {
		return 0, err
	}
	var keys []string
	for _, step := range res {
		for _, r := range step {
			for _, p := range r.Phases {
				keys = append(keys, p.Key)
			}
		}
	}
	sort.Strings(keys)
	written := int64(0)
	for _, key := range slices.Compact(keys) {
		phase, names, ok := storeBlobNames(src, key)
		if !ok {
			continue // a phase that stores no snapshot (sem), or no key
		}
		pe, ok := src.GetPhase(key, names)
		if !ok {
			return 0, fmt.Errorf("phase key %s did not read back", key)
		}
		pe.Phase = phase
		tr.do("cache.write", parent, 0, func() { err = dst.PutPhase(key, pe) })
		if err != nil {
			return 0, err
		}
		for _, b := range pe.Blobs {
			written += int64(len(b))
		}
	}
	return written, nil
}

func storeBlobNames(s *cache.Store, key string) (string, []string, bool) {
	if key == "" {
		return "", nil, false
	}
	phase, blobs, ok := s.PhaseManifest(key)
	if !ok {
		return "", nil, false
	}
	names := make([]string, 0, len(blobs))
	for n := range blobs {
		names = append(names, n)
	}
	sort.Strings(names)
	return phase, names, true
}

// singleBlob reads the one blob a lower or efsm snapshot holds.
func singleBlob(s *cache.Store, key string) (string, error) {
	_, names, ok := storeBlobNames(s, key)
	if !ok || len(names) != 1 {
		return "", fmt.Errorf("phase key %q: want one stored blob", key)
	}
	pe, ok := s.GetPhase(key, names)
	if !ok {
		return "", fmt.Errorf("phase key %q did not read back", key)
	}
	return pe.Blobs[names[0]], nil
}

// depthWindow is how long each serving depth is stepped per batch size.
const depthWindow = 250 * time.Millisecond

// timeInstants calls step until depthWindow has passed and returns the
// time and heap allocations per instant; step returns the instants it
// ran.
func timeInstants(tr *tracer, name string, step func() (int, error)) (us, allocs float64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	id := tr.start(name, 0, 0)
	t0 := time.Now()
	n := 0
	for time.Since(t0) < depthWindow {
		k, err := step()
		if err != nil {
			tr.end(id)
			return 0, 0, err
		}
		n += k
	}
	el := time.Since(t0)
	tr.end(id)
	runtime.ReadMemStats(&after)
	return 1e6 * el.Seconds() / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// profileServe steps the paper's toplevel at four depths — the table
// engine, the Session, the daemon's handler and loopback HTTP — and
// times the open path's two layers.
func profileServe(tr *tracer, e *env, m map[string]metric) error {
	pool, err := servePool(e.seed)
	if err != nil {
		return err
	}
	top := pool[0]
	stim := top.stims[0]

	// Engine: StepSlots over preallocated slot vectors.
	mach, err := exec.Open("efsm-table", top.local)
	if err != nil {
		return err
	}
	ss, ok := mach.(exec.SlotStepper)
	if !ok {
		return fmt.Errorf("efsm-table does not step slots")
	}
	ports := ss.Ports()
	pres := make([][]bool, len(stim))
	vals := make([][]cval.Value, len(stim))
	for i, wire := range stim {
		in, err := exec.DecodeInstant(mach, wire)
		if err != nil {
			return err
		}
		pres[i], vals[i] = ports.NewPresent(), ports.NewInputs()
		if err := ports.BindInstant(in, pres[i], vals[i]); err != nil {
			return err
		}
	}
	present, in, out := ports.NewPresent(), ports.NewInputs(), ports.NewOutputs()
	nin := ports.NumInputs()
	us, allocs, err := timeInstants(tr, "table.step_slots", func() (int, error) {
		for i := range stim {
			copy(present[:nin], pres[i][:nin])
			copy(in, vals[i])
			term, err := ss.StepSlots(present, in, out)
			if err != nil {
				return 0, err
			}
			if term {
				if err := ss.Reset(); err != nil {
					return 0, err
				}
			}
		}
		return len(stim), nil
	})
	if err != nil {
		return err
	}
	m["table.step_slots_us"] = metric{us, "us"}
	m["table.step_slots_allocs"] = metric{allocs, "allocs/instant"}

	daemon, srv, err := startDaemon(1)
	if err != nil {
		return err
	}
	defer daemon.Close()
	defer srv.Close()
	cl, err := simd.Dial(srv.URL)
	if err != nil {
		return err
	}
	info, err := cl.Open(top.openRequest())
	if err != nil {
		return err
	}
	sess := exec.NewSession()
	sid, err := sess.Open("", top.backend, top.local)
	if err != nil {
		return err
	}
	for _, b := range profileBatches {
		bodies, err := stepBodies(stim, b)
		if err != nil {
			return err
		}
		k := 0
		next := func() []map[string]string {
			batch := stim[k : k+b]
			k = (k + b) % len(stim)
			return batch
		}
		depths := map[string]func() (int, error){
			"exec.session_step": func() (int, error) {
				ev, err := sess.StepEvents(sid, next())
				return len(ev), err
			},
			"simd.handler_step": func() (int, error) {
				body := bodies[k/b]
				k = (k + b) % len(stim)
				rec := httptest.NewRecorder()
				daemon.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/machines/"+info.ID+"/step", bytes.NewReader(body)))
				if rec.Code != 200 {
					return 0, fmt.Errorf("handler step: status %d: %s", rec.Code, rec.Body.String())
				}
				return bytes.Count(rec.Body.Bytes(), []byte("\n")), nil
			},
			"simd.http_step": func() (int, error) {
				ev, err := cl.StepEvents(info.ID, next())
				return len(ev), err
			},
		}
		for _, d := range serveDepths {
			k = 0
			us, allocs, err := timeInstants(tr, fmt.Sprintf("%s.b%d", d, b), depths[d])
			if err != nil {
				return fmt.Errorf("%s at batch %d: %w", d, b, err)
			}
			m[fmt.Sprintf("%s_us.b%d", d, b)] = metric{us, "us"}
			m[fmt.Sprintf("%s_allocs.b%d", d, b)] = metric{allocs, "allocs/instant"}
		}
	}

	// Open path: a compile-cache hit in the driver, then a Session open.
	const opens = 20
	drv := driver.New(1)
	req := driver.Request{Path: top.path, Source: top.source, Module: top.module}
	if r := drv.BuildOne(req); r.Failed() {
		return r.Err
	}
	id := tr.start("driver.buildone_hit", 0, 0)
	t0 := time.Now()
	for i := 0; i < opens; i++ {
		if r := drv.BuildOne(req); r.Failed() || !r.Cached {
			tr.end(id)
			return fmt.Errorf("BuildOne of a compiled design missed the cache (%v)", r.Err)
		}
	}
	m["driver.buildone_hit_ms"] = metric{ms(time.Since(t0).Seconds()) / opens, "ms"}
	tr.end(id)
	var openTime time.Duration
	for i := 0; i < opens; i++ {
		t0 := time.Now()
		var oid string
		tr.do("exec.session_open", 0, 0, func() { oid, err = sess.Open("", top.backend, top.local) })
		openTime += time.Since(t0)
		if err != nil {
			return err
		}
		if err := sess.Close(oid); err != nil {
			return err
		}
	}
	m["exec.session_open_ms"] = metric{ms(openTime.Seconds()) / opens, "ms"}
	return nil
}

// stepBodies renders the stimulus as the JSONL step-request bodies of
// batch size b, one per batch offset.
func stepBodies(stim []map[string]string, b int) ([][]byte, error) {
	var bodies [][]byte
	for k := 0; k < len(stim); k += b {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, in := range stim[k : k+b] {
			if err := enc.Encode(exec.Event{Inputs: in}); err != nil {
				return nil, err
			}
		}
		bodies = append(bodies, buf.Bytes())
	}
	return bodies, nil
}
