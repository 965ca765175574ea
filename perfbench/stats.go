package main

import (
	"fmt"
	"math"
	"sort"
)

// dist is a set of samples of one timing or rate.
type dist []float64

// quantile returns the q-quantile (0..1) by linear interpolation
// between closest ranks.
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	s := append(dist(nil), d...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func (d dist) median() float64 { return d.quantile(0.5) }

// tailLadder lists the percentiles a tail is read from, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of tailLadder that has at least
// ten samples beyond it, and its value; ok is false when there are too
// few samples for any of them.
func (d dist) tail() (pct, value float64, ok bool) {
	for _, p := range tailLadder {
		if float64(len(d))*(1-p/100) >= 10 {
			return p, d.quantile(p / 100), true
		}
	}
	return 0, 0, false
}

// describe renders a timing as its median, its tail and its sample
// count, the form every timing line of the report takes.
func (d dist) describe(unit string) string {
	s := fmt.Sprintf("p50 %.4g %s", d.median(), unit)
	if p, v, ok := d.tail(); ok {
		s += fmt.Sprintf(", p%g %.4g %s", p, v, unit)
	} else {
		s += ", tail n/a"
	}
	return s + fmt.Sprintf(", n=%d", len(d))
}

func ms(secs float64) float64 { return secs * 1e3 }
