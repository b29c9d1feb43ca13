package main

import (
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public entry point. Start and End are offsets from the recorder's start;
// Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps the spans of one traced run in memory. The traced
// pipelines call the layers synchronously, so open spans form a stack and
// every span's children are disjoint sub-intervals of it.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(layer, name string) {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.open = append(r.open, len(r.spans))
	r.spans = append(r.spans, span{Name: name, Layer: layer, Parent: parent, Start: time.Since(r.t0)})
}

func (r *recorder) end() {
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].End = time.Since(r.t0)
}

// span runs fn inside a span and returns its error.
func (r *recorder) span(layer, name string, fn func() error) error {
	r.begin(layer, name)
	defer r.end()
	return fn()
}

// root returns the duration of the root span: the traced total.
func (r *recorder) root() time.Duration {
	if len(r.spans) == 0 {
		return 0
	}
	return r.spans[0].dur()
}

// selfByLayer returns each layer's self time: the duration of its spans
// minus the time their child spans cover. A traced run has one root span,
// so the values sum to root() exactly.
func (r *recorder) selfByLayer() map[string]time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	out := map[string]time.Duration{}
	for i, s := range r.spans {
		out[s.Layer] += self[i]
	}
	return out
}

// sum returns the total duration and the number of spans whose name is
// name or starts with name + ".".
func (r *recorder) sum(name string) (time.Duration, int64) {
	var total time.Duration
	var count int64
	for _, s := range r.spans {
		if s.Name == name || strings.HasPrefix(s.Name, name+".") {
			total += s.dur()
			count++
		}
	}
	return total, count
}
