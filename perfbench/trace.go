package main

// trace.go is the traced run's span recorder. Spans are recorded only
// here, around the calls the benchmark makes into each layer's public
// functions; they stay in memory and are written out when the run ends.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`     // the app key, request number or operation the span belongs to
	Parent int    `json:"parent"` // index of the enclosing span; -1 at the root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans. A nil *tracer records nothing, so untraced runs
// call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle; parent is a handle from
// begin or -1.
func (t *tracer) begin(name, id string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[h].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name, id string, parent int, fn func() error) error {
	h := t.begin(name, id, parent)
	err := fn()
	t.end(h)
	return err
}

// selfTimes returns every closed span's self time: its duration minus the
// part of its interval that its closed child spans cover (overlapping
// children are counted once).
func (t *tracer) selfTimes() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		out[i] = time.Duration(s.End - s.Start - covered(kids[i], s.Start, s.End))
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// byName groups self times (microseconds) by span name.
func (t *tracer) byName() map[string][]float64 {
	self := t.selfTimes()
	out := map[string][]float64{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range t.spans {
		if s.End >= 0 {
			out[s.Name] = append(out[s.Name], float64(self[i])/1e3)
		}
	}
	return out
}

// durations returns the wall durations (seconds) of the closed spans
// named name, in start order.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	js, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, js, 0o644)
}
