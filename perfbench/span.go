package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer, recorded from
// outside the program. Parent is the ID of the span whose work caused
// it (0 for a root).
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced mode: every method is a no-op and no span is recorded.
type Tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// SetWorkload tags the spans recorded from now on.
func (t *Tracer) SetWorkload(w string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.workload = w
	t.mu.Unlock()
}

// Add records a span over [start, end] and returns its ID.
func (t *Tracer) Add(layer, name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Layer: layer, Name: name, Workload: t.workload,
		StartNS: int64(start.Sub(t.epoch)), EndNS: int64(end.Sub(t.epoch)),
	})
	return id
}

// Begin opens a span that ends when the returned function is called;
// the ID is available to children at once.
func (t *Tracer) Begin(layer, name string, parent int) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	id := t.Add(layer, name, parent, start, start)
	return id, func() {
		end := int64(time.Since(t.epoch))
		t.mu.Lock()
		t.spans[id-1].EndNS = end
		t.mu.Unlock()
	}
}

// Spans returns a copy of every recorded span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as one JSON document.
func (t *Tracer) WriteFile(path string) error {
	data, err := json.Marshal(struct {
		Spans []Span `json:"spans"`
	}{t.Spans()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its direct children cover (overlapping children count
// once). Children running in parallel on several CPUs can therefore
// leave a parent no self time while their own self times add up to more
// than the parent's wall time.
func selfTimes(spans []Span) map[string]time.Duration {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		covered := coverage(s.StartNS, s.EndNS, kids[s.ID])
		out[s.Layer] += time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}

// coverage is the length of [lo, hi] covered by the union of spans.
func coverage(lo, hi int64, spans []Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.StartNS, lo), min(s.EndNS, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a > end {
			end = v.a
		}
		total += v.b - end
		end = v.b
	}
	return total
}
