package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into the program.
// Spans stay in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced runs measure.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call: Parent is 0 for a root, Req groups the spans
// of one request (a batch, a round or a conversation).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 when t is nil).
func (t *tracer) start(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(t.spans)
}

// end closes the span start returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, req int64, f func()) {
	id := t.start(name, parent, req)
	f()
	t.end(id)
}

// layerTime is the summed self-time and the span count of one span name.
type layerTime struct {
	Self  time.Duration
	Spans int
}

// selfTimes sums, per span name, each span's duration minus the part
// of its interval that its child spans cover.
func (t *tracer) selfTimes() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		lt := out[s.Name]
		lt.Self += time.Duration(s.End - s.Start - covered)
		lt.Spans++
		out[s.Name] = lt
	}
	return out
}

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// writeSelfTable renders the per-name self-time table, largest first.
func writeSelfTable(w io.Writer, self map[string]layerTime) {
	names := make([]string, 0, len(self))
	var total time.Duration
	for n, lt := range self {
		names = append(names, n)
		total += lt.Self
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]].Self > self[names[j]].Self })
	fmt.Fprintf(w, "%-32s %12s %7s %8s\n", "span", "self_ms", "share", "spans")
	for _, n := range names {
		lt := self[n]
		share := 0.0
		if total > 0 {
			share = 100 * float64(lt.Self) / float64(total)
		}
		fmt.Fprintf(w, "%-32s %12.3f %6.1f%% %8d\n", n, ms(lt.Self.Seconds()), share, lt.Spans)
	}
}
