package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cval"
	"repro/internal/driver"
	"repro/internal/eclgen"
	"repro/internal/exec"
	"repro/internal/paperex"
	"repro/internal/simd"
)

const (
	// convInstants is how many instants one conversation steps.
	convInstants = 256
	// stimVariants is how many seeded stimuli each design has.
	stimVariants = 4
	// genModules is how many generated modules join the serving pool.
	genModules = 6
	// maxSessions is the daemon's residency bound. The closed loop keeps
	// at most one session per client open, far below it: concurrent
	// opens can overshoot the bound (the admission race), so the
	// workload does not press on it.
	maxSessions = 64
	// serveClients is the closed loop's client count. Two clients and
	// the daemon saturate a 2-core box, and the loop's figures then
	// follow whatever else the machine runs (run-to-run spread about
	// twice that of one client).
	serveClients = 1
)

// batchSizes are the step-request sizes a conversation draws from.
var batchSizes = []int{1, 8, 64}

// poolDesign is one design the serving clients open.
type poolDesign struct {
	path, source, module, backend string
	local                         *core.Design // compiled here, for the oracle
	stims                         [][]map[string]string
}

// servePool builds the seeded pool: the paper's toplevel with packet
// stimulus on efsm-table, plus generated modules on efsm and efsm-table.
func servePool(seed int64) ([]*poolDesign, error) {
	rng := rand.New(rand.NewSource(seed))
	nc := &driver.Driver{Workers: 1, NoCache: true}
	top := &poolDesign{path: "stack.ecl", source: paperex.Stack, module: "toplevel", backend: "efsm-table"}
	pool := []*poolDesign{top}
	gen := eclgen.Generate(eclgen.Config{Seed: seed, Modules: genModules, NoWrappers: true})
	reqs, err := nc.ExpandModules(driver.Request{Path: "gen.ecl", Source: gen})
	if err != nil {
		return nil, err
	}
	for i, r := range reqs {
		backend := "efsm"
		if i%2 == 1 {
			backend = "efsm-table"
		}
		pool = append(pool, &poolDesign{path: "gen.ecl", source: gen, module: r.Module, backend: backend})
	}
	for _, p := range pool {
		res := nc.BuildOne(driver.Request{Path: p.path, Source: p.source, Module: p.module})
		if res.Failed() {
			return nil, fmt.Errorf("%s: %w", p.module, res.Err)
		}
		p.local = res.Design
		ref, err := exec.Open("interp", p.local)
		if err != nil {
			return nil, err
		}
		for v := 0; v < stimVariants; v++ {
			var instants []map[string]cval.Value
			if p == top {
				instants = packetStimulus(rng, ref)
			} else {
				instants = stimulus(rng, ref, convInstants, 0.4)
			}
			wire := make([]map[string]string, len(instants))
			for i, in := range instants {
				wire[i] = exec.EncodeInstant(in)
			}
			p.stims = append(p.stims, wire)
		}
	}
	return pool, nil
}

// packetStimulus feeds toplevel whole packets, each good or corrupt.
func packetStimulus(rng *rand.Rand, m exec.Machine) []map[string]cval.Value {
	var byteType = m.Inputs()[0].Type
	for _, sig := range m.Inputs() {
		if sig.Name == "in_byte" {
			byteType = sig.Type
		}
	}
	out := make([]map[string]cval.Value, 0, convInstants)
	for len(out) < convInstants {
		pkt := paperex.MakePacket(rng.Intn(4) != 0)
		for _, b := range pkt {
			out = append(out, map[string]cval.Value{"in_byte": cval.FromInt(byteType, int64(b))})
		}
	}
	return out[:convInstants]
}

// startDaemon serves a new daemon over loopback TCP.
func startDaemon(workers int) (*simd.Daemon, *httptest.Server, error) {
	d, err := simd.New(simd.Config{Driver: driver.New(workers), Backend: "efsm-table", MaxSessions: maxSessions})
	if err != nil {
		return nil, nil, err
	}
	return d, httptest.NewServer(d), nil
}

// conversation is one open-step-close exchange as the oracle sees it.
type conversation struct {
	design, stim, batch int
	digest              string
}

// serveWorkload is serve-step: a daemon behind a loopback HTTP server
// and a closed loop of serveClients clients, each running
// conversations one after another.
type serveWorkload struct {
	env    *env
	pool   []*poolDesign
	daemon *simd.Daemon
	srv    *httptest.Server
	hc     *http.Client

	mu      sync.Mutex
	convs   []conversation
	streams map[[2]int][]exec.Event // first stream seen per design and stimulus
	nextReq atomic.Int64
}

func (s *serveWorkload) setup(tr *tracer) error {
	s.close()
	pool, err := servePool(s.env.seed)
	if err != nil {
		return err
	}
	s.pool = pool
	if s.daemon, s.srv, err = startDaemon(s.env.workers); err != nil {
		return err
	}
	s.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	cl, err := simd.DialWith(s.srv.URL, s.hc)
	if err != nil {
		return err
	}
	// Open every design once so the loop's opens are compile-cache hits.
	for _, p := range s.pool {
		var info simd.MachineInfo
		tr.do("e2e.serve.warm_open", 0, 0, func() { info, err = cl.Open(p.openRequest()) })
		if err != nil {
			return err
		}
		if err := cl.Close(info.ID); err != nil {
			return err
		}
	}
	return nil
}

func (p *poolDesign) openRequest() simd.OpenRequest {
	return simd.OpenRequest{Path: p.path, Source: p.source, Module: p.module, Backend: p.backend}
}

// clientStats is one client's share of a loop.
type clientStats struct {
	attempted, failed, instants int64
	steps, opens                dist
	byBatch                     map[int]dist
}

func (s *serveWorkload) loop(deadline time.Time, tr *tracer) (*loopStats, error) {
	stats := make([]clientStats, serveClients)
	errs := make([]error, len(stats))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range stats {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = s.client(c, deadline, tr, &stats[c])
		}(c)
	}
	wg.Wait()
	el := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	ls := &loopStats{}
	var opens dist
	byBatch := map[int]dist{}
	instants := int64(0)
	for _, st := range stats {
		ls.attempted += st.attempted
		ls.failed += st.failed
		ls.op = append(ls.op, st.steps...)
		opens = append(opens, st.opens...)
		instants += st.instants
		for b, d := range st.byBatch {
			byBatch[b] = append(byBatch[b], d...)
		}
	}
	ls.throughput = float64(instants) / el.Seconds()
	ls.lines = []string{
		fmt.Sprintf("serve_instants_per_s %.6g instants/s (%d instants, %d clients, %.3g s)", ls.throughput, instants, serveClients, el.Seconds()),
		"serve_step_ms " + ls.op.describe("ms"),
		"serve_open_ms " + opens.describe("ms"),
	}
	for _, b := range batchSizes {
		ls.lines = append(ls.lines, fmt.Sprintf("serve_step_b%d_ms %s", b, byBatch[b].describe("ms")))
	}
	return ls, nil
}

// client runs conversations until the deadline: open a seeded design,
// step its stimulus in requests of a seeded batch size, close.
func (s *serveWorkload) client(c int, deadline time.Time, tr *tracer, st *clientStats) error {
	cl, err := simd.DialWith(s.srv.URL, s.hc)
	if err != nil {
		return err
	}
	st.byBatch = map[int]dist{}
	rng := rand.New(rand.NewSource(s.env.seed*31 + int64(c)))
	// Designs and batch sizes are drawn without replacement, a fresh
	// shuffle per pass, so every stretch of the loop has the same mix.
	var designs, batches []int
	for time.Now().Before(deadline) {
		if len(designs) == 0 {
			designs = rng.Perm(len(s.pool))
		}
		if len(batches) == 0 {
			batches = rng.Perm(len(batchSizes))
		}
		cv := conversation{design: designs[0], stim: rng.Intn(stimVariants), batch: batchSizes[batches[0]]}
		designs, batches = designs[1:], batches[1:]
		p := s.pool[cv.design]
		stim := p.stims[cv.stim]
		req := s.nextReq.Add(1)
		root := tr.start("e2e.serve.conversation", 0, req)
		st.attempted++
		t0 := time.Now()
		var info simd.MachineInfo
		tr.do("e2e.serve.open", root, req, func() { info, err = cl.Open(p.openRequest()) })
		if err != nil {
			st.failed++
			tr.end(root)
			continue
		}
		st.opens = append(st.opens, ms(time.Since(t0).Seconds()))
		events := make([]exec.Event, 0, len(stim))
		for k := 0; k < len(stim); k += cv.batch {
			st.attempted++
			t0 := time.Now()
			var ev []exec.Event
			tr.do("e2e.serve.step", root, req, func() { ev, err = cl.StepEvents(info.ID, stim[k:min(k+cv.batch, len(stim))]) })
			if err != nil {
				st.failed++
				break
			}
			took := ms(time.Since(t0).Seconds())
			st.steps = append(st.steps, took)
			st.byBatch[cv.batch] = append(st.byBatch[cv.batch], took)
			st.instants += int64(len(ev))
			events = append(events, ev...)
			if len(ev) > 0 && ev[len(ev)-1].Terminated {
				break
			}
		}
		st.attempted++
		tr.do("e2e.serve.close", root, req, func() { err = cl.Close(info.ID) })
		if err != nil {
			st.failed++
		}
		tr.end(root)
		if cv.digest, err = digestEvents(events); err != nil {
			return err
		}
		s.mu.Lock()
		s.convs = append(s.convs, cv)
		key := [2]int{cv.design, cv.stim}
		if s.streams == nil {
			s.streams = map[[2]int][]exec.Event{}
		}
		if _, ok := s.streams[key]; !ok {
			s.streams[key] = events
		}
		s.mu.Unlock()
	}
	return nil
}

// digestEvents hashes an event stream's canonical encoding.
func digestEvents(events []exec.Event) (string, error) {
	data, err := json.Marshal(events)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// check replays the first stream of every design and stimulus on
// interp and requires every other conversation to have produced the
// same stream, and the daemon to have stayed within its bound.
func (s *serveWorkload) check() error {
	if len(s.convs) == 0 {
		return fmt.Errorf("no conversation completed")
	}
	want := map[[2]int]string{}
	for key, events := range s.streams {
		p := s.pool[key[0]]
		if err := replayStream(p, p.stims[key[1]], events); err != nil {
			return fmt.Errorf("%s stimulus %d: %w", p.module, key[1], err)
		}
		d, err := digestEvents(events)
		if err != nil {
			return err
		}
		want[key] = d
	}
	for i, cv := range s.convs {
		if cv.digest != want[[2]int{cv.design, cv.stim}] {
			return fmt.Errorf("conversation %d (%s, batch %d) differs from a stream that replays clean", i, s.pool[cv.design].module, cv.batch)
		}
	}
	if s.daemon != nil {
		if st := s.daemon.Stats(); st.Evictions != 0 || st.Resident != 0 {
			return fmt.Errorf("daemon left %d resident sessions and evicted %d", st.Resident, st.Evictions)
		}
	}
	return nil
}

// replayStream checks one daemon event stream: it must carry the
// stimulus that was sent, in full, and replay clean on interp.
func replayStream(p *poolDesign, stim []map[string]string, events []exec.Event) error {
	if len(events) == 0 || (len(events) < len(stim) && !events[len(events)-1].Terminated) {
		return fmt.Errorf("%d of %d instants came back", len(events), len(stim))
	}
	for i, ev := range events {
		if ev.Instant != i || !(len(ev.Inputs) == 0 && len(stim[i]) == 0 || reflect.DeepEqual(ev.Inputs, stim[i])) {
			return fmt.Errorf("instant %d: the event does not carry the input sent", i)
		}
	}
	m, err := exec.Open("interp", p.local)
	if err != nil {
		return err
	}
	t := exec.NewTrace(p.local.Machine.Name, p.backend)
	t.Events = events
	got, err := exec.Replay(m, t)
	if err != nil {
		return err
	}
	return exec.Diff(t, got)
}

func (s *serveWorkload) close() {
	if s.srv != nil {
		s.srv.Close()
		s.srv = nil
	}
	if s.hc != nil {
		s.hc.CloseIdleConnections()
		s.hc = nil
	}
	if s.daemon != nil {
		s.daemon.Close()
		// check reads the daemon's counters after the loop.
	}
}
