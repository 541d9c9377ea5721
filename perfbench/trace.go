package main

import (
	"encoding/json"
	"os"
	"time"
)

// Step ids for spans recorded outside the measured steps.
const (
	stepSetup = -1 // the traced set-up
	stepFinal = -2 // run-level probes after the last step (per-rule lint)
)

// span is one traced call into a layer, recorded from the calling side
// of the boundary: the benchmark wraps public calls of the packages it
// drives, never code inside them.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list; -1 for a root
	Step   int    `json:"step"`
}

// tracer keeps spans and per-step counters in memory until the run
// ends. A nil *tracer records nothing, so the untraced run pays one
// nil check per layer boundary.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int // stack of unfinished span indices
	step   int
	steps  int                // traced steps begun
	counts map[string]float64 // counter sums over the traced steps
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), step: stepSetup, counts: map[string]float64{}}
}

// beginStep attributes later spans to a new measured step.
func (t *tracer) beginStep() {
	if t == nil {
		return
	}
	t.step = t.steps
	t.steps++
}

// setStep attributes later spans to a phase outside the steps.
func (t *tracer) setStep(id int) {
	if t != nil {
		t.step = id
	}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Step: t.step})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// add accumulates a counter observed at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// selfTimes derives each span's self time — its duration minus the
// part its direct children cover — and sums it per (name, step class):
// measured steps, set-up, and final probes are kept apart.
func (t *tracer) selfTimes() (steps, setup, final map[string]time.Duration) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	steps, setup, final = map[string]time.Duration{}, map[string]time.Duration{}, map[string]time.Duration{}
	for i, s := range t.spans {
		self := time.Duration(s.End - s.Start - child[i])
		switch s.Step {
		case stepSetup:
			setup[s.Name] += self
		case stepFinal:
			final[s.Name] += self
		default:
			steps[s.Name] += self
		}
	}
	return steps, setup, final
}

// writeFile writes the spans as one JSON array.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
