package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/driver"
	"repro/internal/eclgen"
	"repro/internal/pipeline"
)

// warmWorkload is rebuild-warm: the mega-file against a store warmed
// during setup. Each round is a new process's view (a fresh Driver and
// a fresh store handle) running three builds: an unchanged build with
// targets only, an unchanged vet build (analysis on), and a vet build
// after a data edit with a new value each round.
type warmWorkload struct {
	env  *env
	src  string
	dir  string // the warmed store
	edit dataEdit

	ref      map[string]string // NoCache digests of the unchanged file (with findings)
	refArts  map[string]string // the same without findings
	ref0     map[string]string // NoCache digests of the first round's edited file
	affected []string          // modules whose outputs the edit changes
	rounds   []warmRound
}

// warmRound is what one round produced, as digests.
type warmRound struct {
	value           int
	build, vet, ed  map[string]string
	efsmDisk, efsmR int64
}

// stepNames are the three builds of a round, in order.
var stepNames = [3]string{"warm_build", "warm_vet", "edit_vet"}

func (w *warmWorkload) setup(tr *tracer) error {
	w.src = eclgen.File(w.env.seed, w.env.modules)
	edit, err := findDataEdit(w.src, w.env.seed)
	if err != nil {
		return err
	}
	w.edit = edit
	// Earlier set-ups' stores stay until the next run clears them:
	// deleting files slows the file system's writes for a while after.
	w.dir = w.env.freshDir("warm")
	return warmStore(w.dir, w.src, w.env.workers, tr)
}

// warmStore fills a new store with a cold targets-only build and a
// vet build of src, each through its own driver and store handle.
func warmStore(dir, src string, workers int, tr *tracer) error {
	for _, vet := range []bool{false, true} {
		store, err := cache.Open(dir)
		if err != nil {
			return err
		}
		d := &driver.Driver{Workers: workers, Disk: store}
		res, err := buildFile(d, src, vet, tr, 0, 0)
		if err != nil {
			return fmt.Errorf("warming the store: %w", err)
		}
		if n := countFailed(res); n > 0 {
			return fmt.Errorf("warming the store: %d modules failed", n)
		}
	}
	return nil
}

// round runs one round's three builds on a fresh driver and store
// handle and returns each build's results and time.
func (w *warmWorkload) round(r int, workers int, tr *tracer) ([3][]driver.Result, [3]time.Duration, *driver.Driver, error) {
	var res [3][]driver.Result
	var took [3]time.Duration
	req := int64(r + 1)
	root := tr.start("e2e.warm.round", 0, req)
	defer tr.end(root)
	t0 := time.Now()
	var store *cache.Store
	var err error
	tr.do("e2e.cache.open", root, req, func() { store, err = cache.Open(w.dir) })
	if err != nil {
		return res, took, nil, err
	}
	d := &driver.Driver{Workers: workers, Disk: store}
	srcs := [3]string{w.src, w.src, w.edit.apply(w.src, w.edit.value(r))}
	for i := range res {
		if i > 0 {
			t0 = time.Now()
		}
		step := tr.start("e2e.warm."+stepNames[i], root, req)
		res[i], err = buildFile(d, srcs[i], i > 0, tr, step, req)
		tr.end(step)
		took[i] = time.Since(t0)
		if err != nil && len(res[i]) == 0 {
			return res, took, nil, err
		}
	}
	return res, took, d, nil
}

func (w *warmWorkload) loop(deadline time.Time, tr *tracer) (*loopStats, error) {
	ls := &loopStats{}
	var steps [3]dist
	var rates dist
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		res, took, d, err := w.round(len(w.rounds), w.env.workers, tr)
		if err != nil {
			return nil, err
		}
		total := took[0] + took[1] + took[2]
		n := 0
		for i := range res {
			ls.attempted += int64(len(res[i]))
			ls.failed += countFailed(res[i])
			steps[i] = append(steps[i], ms(took[i].Seconds()))
			n += len(res[i])
		}
		ls.op = append(ls.op, ms(total.Seconds()))
		rates = append(rates, float64(n)/total.Seconds())
		// Digests are taken outside the timed builds.
		rd, err := digestRound(res, d, w.edit.value(len(w.rounds)))
		if err != nil {
			return nil, err
		}
		w.rounds = append(w.rounds, rd)
	}
	ls.throughput = rates.median()
	ls.lines = []string{fmt.Sprintf("warm_modules_per_s %.6g modules/s (median of %d rounds, 3 builds of %d modules each)", ls.throughput, len(rates), w.env.modules),
		"warm_round_ms " + ls.op.describe("ms")}
	for i, n := range stepNames {
		ls.lines = append(ls.lines, n+"_ms "+steps[i].describe("ms"))
	}
	return ls, nil
}

// digestRound reduces one round's results to what the oracle compares.
func digestRound(res [3][]driver.Result, d *driver.Driver, value int) (warmRound, error) {
	rd := warmRound{value: value}
	efsm := d.CacheStats().Phases[pipeline.PhaseEFSM]
	rd.efsmDisk, rd.efsmR = efsm.DiskHits, efsm.Rebuilds
	var err error
	if rd.build, err = moduleDigests(res[0], false); err != nil {
		return rd, err
	}
	if rd.vet, err = moduleDigests(res[1], true); err != nil {
		return rd, err
	}
	rd.ed, err = moduleDigests(res[2], true)
	return rd, err
}

// check compares every round's builds with NoCache compiles of the
// same source, and requires each round to have synthesized no EFSM.
func (w *warmWorkload) check() error {
	if w.ref == nil {
		if err := w.prepareOracle(); err != nil {
			return err
		}
	}
	for i, rd := range w.rounds {
		if err := w.checkRound(rd); err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
	}
	return nil
}

// prepareOracle compiles the unchanged file and the first round's
// edited file without any cache. The modules whose outputs the edit
// changes (the edited module and the modules that instantiate it) are
// the ones each later round recompiles for comparison.
func (w *warmWorkload) prepareOracle() error {
	nc := &driver.Driver{Workers: w.env.workers, NoCache: true}
	res, err := buildFile(nc, w.src, true, nil, 0, 0)
	if err != nil {
		return err
	}
	if w.ref, err = moduleDigests(res, true); err != nil {
		return err
	}
	if w.refArts, err = moduleDigests(res, false); err != nil {
		return err
	}
	res, err = buildFile(nc, w.edit.apply(w.src, w.edit.value(0)), true, nil, 0, 0)
	if err != nil {
		return err
	}
	if w.ref0, err = moduleDigests(res, true); err != nil {
		return err
	}
	w.affected = nil
	for mod, d := range w.ref0 {
		if mod != "" && d != w.ref[mod] {
			w.affected = append(w.affected, mod)
		}
	}
	if !slices.Contains(w.affected, w.edit.module) {
		return fmt.Errorf("editing module %s changed none of its outputs", w.edit.module)
	}
	return nil
}

func (w *warmWorkload) checkRound(rd warmRound) error {
	if rd.efsmDisk != int64(w.env.modules) || rd.efsmR != 0 {
		return fmt.Errorf("efsm phase: %d disk hits and %d rebuilds, want %d and 0", rd.efsmDisk, rd.efsmR, w.env.modules)
	}
	if err := sameDigests(w.refArts, rd.build); err != nil {
		return fmt.Errorf("warm_build: %w", err)
	}
	if err := sameDigests(w.ref, rd.vet); err != nil {
		return fmt.Errorf("warm_vet: %w", err)
	}
	if rd.value == w.edit.value(0) {
		if err := sameDigests(w.ref0, rd.ed); err != nil {
			return fmt.Errorf("edit_vet: %w", err)
		}
		return nil
	}
	if err := sameDigests(w.ref, rd.ed, append([]string{""}, w.affected...)...); err != nil {
		return fmt.Errorf("edit_vet: %w", err)
	}
	nc := &driver.Driver{Workers: 1, NoCache: true}
	src := w.edit.apply(w.src, rd.value)
	for i, mod := range w.affected {
		one := nc.BuildOne(driver.Request{Path: megaPath, Source: src, Module: mod, Targets: allTargets, Analyze: true})
		want, err := moduleDigests([]driver.Result{one}, true)
		if err != nil {
			return err
		}
		if rd.ed[mod] != want[mod] || (i == 0 && rd.ed[""] != want[""]) {
			return fmt.Errorf("edit_vet: module %s or the file-level findings differ from a NoCache compile", mod)
		}
	}
	return nil
}

func (w *warmWorkload) close() {}

// dataEdit names one integer literal in one module's extracted data
// loop: the bound of a generated `for (t = 0; t < N; t++)` loop.
type dataEdit struct {
	module   string
	pos, end int // the literal's byte range in the source
	orig     int
}

var dataLoop = regexp.MustCompile(`for \(t = 0; t < (\d+); t\+\+\)`)

// findDataEdit picks one data loop of src, seeded.
func findDataEdit(src string, seed int64) (dataEdit, error) {
	locs := dataLoop.FindAllStringSubmatchIndex(src, -1)
	if len(locs) == 0 {
		return dataEdit{}, fmt.Errorf("no data loop to edit in the generated file")
	}
	loc := locs[rand.New(rand.NewSource(seed)).Intn(len(locs))]
	head := src[:loc[0]]
	at := strings.LastIndex(head, "\nmodule ")
	if at < 0 {
		return dataEdit{}, fmt.Errorf("data loop outside a module")
	}
	name := strings.Fields(head[at+len("\nmodule "):])[0]
	orig, err := strconv.Atoi(src[loc[2]:loc[3]])
	if err != nil {
		return dataEdit{}, err
	}
	return dataEdit{module: name, pos: loc[2], end: loc[3], orig: orig}, nil
}

// value is the literal's value in round r: new in every round and
// never the original.
func (e dataEdit) value(r int) int { return e.orig + 1 + r }

func (e dataEdit) apply(src string, v int) string {
	return src[:e.pos] + strconv.Itoa(v) + src[e.end:]
}
