package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/cval"
	"repro/internal/driver"
	"repro/internal/exec"
)

// megaPath is the display name of the generated mega-file.
const megaPath = "mega.ecl"

// allTargets is what compile-cold and rebuild-warm build every module to.
var allTargets = []driver.Target{driver.TargetC, driver.TargetEsterel, driver.TargetTable}

// buildFile expands src into one request per module and builds them
// all on d. analyze turns the static-analysis phases on.
func buildFile(d *driver.Driver, src string, analyzeOn bool, tr *tracer, parent int, req int64) ([]driver.Result, error) {
	seed := driver.Request{Path: megaPath, Source: src, Targets: allTargets, Analyze: analyzeOn}
	var reqs []driver.Request
	var err error
	tr.do("e2e.driver.expand", parent, req, func() { reqs, err = d.ExpandModules(seed) })
	if err != nil {
		return nil, err
	}
	var res []driver.Result
	tr.do("e2e.driver.build", parent, req, func() { res, err = d.Build(context.Background(), reqs) })
	return res, err
}

// countFailed counts the results that carry an error.
func countFailed(res []driver.Result) int64 {
	n := int64(0)
	for i := range res {
		if res[i].Failed() {
			n++
		}
	}
	return n
}

// stimulus draws n input instants for m: each input is present with
// probability p, valued inputs carry a value in [0, 256).
func stimulus(rng *rand.Rand, m exec.Machine, n int, p float64) []map[string]cval.Value {
	out := make([]map[string]cval.Value, n)
	for i := range out {
		in := map[string]cval.Value{}
		for _, sig := range m.Inputs() {
			if rng.Float64() >= p {
				continue
			}
			var v cval.Value
			if !sig.Pure && sig.Type != nil {
				v = cval.FromInt(sig.Type, int64(rng.Intn(256)))
			}
			in[sig.Name] = v
		}
		out[i] = in
	}
	return out
}

// conform steps the design on backend and on the interp reference
// under the same stimulus and diffs the two traces.
func conform(d *core.Design, backend string, instants []map[string]cval.Value) error {
	ref, err := exec.Open("interp", d)
	if err != nil {
		return err
	}
	want, err := exec.Record(ref, instants)
	if err != nil {
		return fmt.Errorf("interp: %w", err)
	}
	m, err := exec.Open(backend, d)
	if err != nil {
		return err
	}
	got, err := exec.Record(m, instants)
	if err != nil {
		return fmt.Errorf("%s: %w", backend, err)
	}
	return exec.Diff(want, got)
}

// moduleDigests maps each module to a hash of its artifacts and, when
// withFindings is set, its findings; "" keys the file-level findings.
func moduleDigests(res []driver.Result, withFindings bool) (map[string]string, error) {
	out := make(map[string]string, len(res)+1)
	for i := range res {
		r := &res[i]
		if r.Failed() {
			return nil, fmt.Errorf("module %s: %v", r.Module, r.Err)
		}
		h := sha256.New()
		targets := make([]string, 0, len(r.Artifacts))
		for t := range r.Artifacts {
			targets = append(targets, string(t))
		}
		sort.Strings(targets)
		for _, t := range targets {
			fmt.Fprintf(h, "%s\x00%d\x00%s", t, len(r.Artifacts[driver.Target(t)]), r.Artifacts[driver.Target(t)])
		}
		if withFindings {
			enc, err := analyze.Encode(r.Findings)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(h, "findings\x00%s", enc)
			if i == 0 {
				fenc, err := analyze.Encode(r.FileFindings)
				if err != nil {
					return nil, err
				}
				out[""] = string(fenc)
			}
		}
		out[r.Module] = hex.EncodeToString(h.Sum(nil))
	}
	return out, nil
}

// sameDigests reports the first module whose digest differs, leaving
// out the skipped keys.
func sameDigests(want, got map[string]string, skip ...string) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d modules, want %d", len(got), len(want))
	}
	for mod, w := range want {
		if slices.Contains(skip, mod) {
			continue
		}
		if got[mod] != w {
			if mod == "" {
				return fmt.Errorf("file-level findings differ")
			}
			return fmt.Errorf("module %s: artifacts or findings differ", mod)
		}
	}
	return nil
}
