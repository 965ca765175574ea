package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/driver"
	"repro/internal/eclgen"
	"repro/internal/exec"
)

// coldWorkload is compile-cold: a fresh Driver with empty memory tiers
// compiles the whole mega-file, every module to C, Esterel and table
// with analysis on. EFSM synthesis and analysis do the work; the cache
// tiers only write. The driver has no disk tier: on a shared box the
// time of a burst of store writes swings several-fold with the file
// system's recent activity (see README.md), so the disk tier's write
// cost is measured on its own, as cache.write_ms in the traced run.
type coldWorkload struct {
	env  *env
	src  string
	last []driver.Result // the last measured batch, for the oracle
	// cBytes is the summed C artifact size of every measured batch.
	cBytes []int
}

// oracleSample is how many modules the oracle steps against interp.
const oracleSample = 8

// setup generates the file and runs one unmeasured cold batch, so the
// measured batches start with the runtime and the file system warm.
func (c *coldWorkload) setup(tr *tracer) error {
	c.src = eclgen.File(c.env.seed, c.env.modules)
	_, _, err := c.batch(tr, 0)
	return err
}

// batch compiles the file cold on a fresh driver.
func (c *coldWorkload) batch(tr *tracer, req int64) ([]driver.Result, time.Duration, error) {
	t0 := time.Now()
	root := tr.start("e2e.cold.batch", 0, req)
	d := &driver.Driver{Workers: c.env.workers}
	res, err := buildFile(d, c.src, true, tr, root, req)
	tr.end(root)
	el := time.Since(t0)
	if err != nil && len(res) == 0 {
		return nil, 0, err
	}
	return res, el, nil
}

func (c *coldWorkload) loop(deadline time.Time, tr *tracer) (*loopStats, error) {
	ls := &loopStats{}
	var rates dist
	for n := int64(1); n == 1 || time.Now().Before(deadline); n++ {
		res, el, err := c.batch(tr, n)
		if err != nil {
			return nil, err
		}
		ls.attempted += int64(len(res))
		ls.failed += countFailed(res)
		ls.op = append(ls.op, ms(el.Seconds()))
		rates = append(rates, float64(len(res))/el.Seconds())
		sum := 0
		for i := range res {
			sum += len(res[i].Artifacts[driver.TargetC])
		}
		c.cBytes = append(c.cBytes, sum)
		c.last = res
	}
	ls.throughput = rates.median()
	ls.lines = []string{
		fmt.Sprintf("cold_modules_per_s %.6g modules/s (median of %d batches of %d modules)", ls.throughput, len(rates), c.env.modules),
		"cold_batch_ms " + ls.op.describe("ms"),
		fmt.Sprintf("c_code_bytes %d bytes", c.cBytes[len(c.cBytes)-1]),
	}
	return ls, nil
}

// check steps a seeded sample of the last batch's modules on
// efsm-table against interp, and requires every batch to have produced
// the same C.
func (c *coldWorkload) check() error {
	for _, b := range c.cBytes {
		if b != c.cBytes[0] {
			return fmt.Errorf("C artifact size changed between batches: %d vs %d bytes", b, c.cBytes[0])
		}
	}
	return checkColdSample(c.last, c.env.seed)
}

func checkColdSample(res []driver.Result, seed int64) error {
	if len(res) == 0 {
		return fmt.Errorf("no batch was built")
	}
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(len(res))[:min(oracleSample, len(res))] {
		r := &res[i]
		if r.Failed() || r.Design == nil {
			return fmt.Errorf("module %s: no compiled design (%v)", r.Module, r.Err)
		}
		if r.Artifacts[driver.TargetC] == "" || r.Artifacts[driver.TargetTable] == "" || r.Artifacts[driver.TargetEsterel] == "" {
			return fmt.Errorf("module %s: missing artifact", r.Module)
		}
		ref, err := exec.Open("interp", r.Design)
		if err != nil {
			return err
		}
		if err := conform(r.Design, "efsm-table", stimulus(rng, ref, 64, 0.4)); err != nil {
			return fmt.Errorf("module %s: efsm-table vs interp: %w", r.Module, err)
		}
	}
	return nil
}

func (c *coldWorkload) close() {}
