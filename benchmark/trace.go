package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/pram"
)

// calls aggregates one kind of call within an op: how many and their
// total duration. A run is driven from one goroutine, so the timing
// wrappers update it without locking.
type calls struct {
	N  int64 `json:"n"`
	Ns int64 `json:"ns"`
}

func (c *calls) since(start time.Time) {
	c.N++
	c.Ns += int64(time.Since(start))
}

func (c *calls) add(d time.Duration) {
	c.N++
	c.Ns += int64(d)
}

// span is one traced interval. Spans of one op share Op; Parent is the
// ID of the enclosing span (0 for the op's root). A span that stands for
// aggregated per-tick calls (Step, TickBatch, Decide, sampled Cycle)
// carries their count and total time in Calls instead of an interval.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns,omitempty"`
	End    int64  `json:"end_ns,omitempty"`
	Calls  *calls `json:"calls,omitempty"`
}

// tracer keeps a traced run's spans in memory until the run ends. Times
// are nanoseconds since the tracer was made.
type tracer struct {
	start time.Time
	// clock is what timing a call adds to its measured duration by
	// itself: the duration an empty timed call measures.
	clock time.Duration

	mu    sync.Mutex
	ops   int64
	spans []span
}

func newTracer() *tracer {
	var c calls
	for i := 0; i < 1<<16; i++ {
		c.since(time.Now())
	}
	return &tracer{start: time.Now(), clock: time.Duration(c.Ns / c.N)}
}

// net returns the time c spent in the calls themselves: its total less
// what timing them added.
func (t *tracer) net(c calls) time.Duration {
	return max(time.Duration(c.Ns-c.N*int64(t.clock)), 0)
}

// newOp returns a fresh op ID.
func (t *tracer) newOp() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// span records an interval of op under parent and returns its ID.
func (t *tracer) span(op, parent int64, name string, start, end time.Time) int64 {
	return t.add(span{Op: op, Parent: parent, Name: name, Start: int64(start.Sub(t.start)), End: int64(end.Sub(t.start))})
}

// calls records aggregated calls of op under parent.
func (t *tracer) calls(op, parent int64, name string, c calls) {
	t.add(span{Op: op, Parent: parent, Name: name, Calls: &c})
}

func (t *tracer) add(s span) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = int64(len(t.spans)) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// write saves the spans as JSON to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// sampledPIDs is how many of p processors have their cycles timed when
// one PID in every is.
func sampledPIDs(p, every int) int { return (p + every - 1) / every }

// The timing wrappers below must forward exactly the optional interfaces
// of the value they wrap. The machine discovers fast paths by type
// assertion — Quiescence and BatchSink enable quiet windows, BatchCycler
// the batched cycles, ArrayDoneHinter the done counter and packing,
// Resettable the processor pool, Snapshotter checkpoints — so a wrapper
// that hid one would silently switch a fast path off and the traced run
// would time a different program. One that added one would claim a
// contract the wrapped value does not keep.

// timedAdversary times Decide.
type timedAdversary struct {
	pram.Adversary
	decide *calls
}

func (a *timedAdversary) Decide(v *pram.View) pram.Decision {
	start := time.Now()
	d := a.Adversary.Decide(v)
	a.decide.since(start)
	return d
}

// timeAdversary wraps a so every Decide call is added to decide.
func timeAdversary(a pram.Adversary, decide *calls) pram.Adversary {
	t := &timedAdversary{a, decide}
	q, isQ := a.(pram.Quiescence)
	s, isS := a.(pram.Snapshotter)
	switch {
	case isQ && isS:
		return struct {
			*timedAdversary
			pram.Quiescence
			pram.Snapshotter
		}{t, q, s}
	case isQ:
		return struct {
			*timedAdversary
			pram.Quiescence
		}{t, q}
	case isS:
		return struct {
			*timedAdversary
			pram.Snapshotter
		}{t, s}
	}
	return t
}

// sampledAlgorithm hands out timed processors for one PID in every.
type sampledAlgorithm struct {
	pram.Algorithm
	cycle *calls
	every int
}

func (a *sampledAlgorithm) NewProcessor(pid, n, p int) pram.Processor {
	proc := a.Algorithm.NewProcessor(pid, n, p)
	if pid%a.every != 0 {
		return proc
	}
	return timeProcessor(proc, a.cycle)
}

// sampleAlgorithm wraps a so the update cycles of one processor in every
// are added to cycle.
func sampleAlgorithm(a pram.Algorithm, cycle *calls, every int) pram.Algorithm {
	t := &sampledAlgorithm{a, cycle, every}
	h, isH := a.(pram.ArrayDoneHinter)
	s, isS := a.(pram.Snapshotter)
	switch {
	case isH && isS:
		return struct {
			*sampledAlgorithm
			pram.ArrayDoneHinter
			pram.Snapshotter
		}{t, h, s}
	case isH:
		return struct {
			*sampledAlgorithm
			pram.ArrayDoneHinter
		}{t, h}
	case isS:
		return struct {
			*sampledAlgorithm
			pram.Snapshotter
		}{t, s}
	}
	return t
}

// timedProcessor times Cycle.
type timedProcessor struct {
	pram.Processor
	cycle *calls
}

func (p *timedProcessor) Cycle(ctx *pram.Ctx) pram.Status {
	start := time.Now()
	st := p.Processor.Cycle(ctx)
	p.cycle.since(start)
	return st
}

// timedBatchCycler times Cycle and CycleBatch.
type timedBatchCycler struct {
	*timedProcessor
	batch pram.BatchCycler
}

func (p *timedBatchCycler) CycleBatch(b *pram.BatchCtx, k int) (int, pram.Status) {
	start := time.Now()
	ran, st := p.batch.CycleBatch(b, k)
	p.cycle.since(start)
	return ran, st
}

// timeProcessor wraps p so its update cycles are added to cycle.
func timeProcessor(p pram.Processor, cycle *calls) pram.Processor {
	t := &timedProcessor{p, cycle}
	r, isR := p.(pram.Resettable)
	s, isS := p.(pram.Snapshotter)
	if b, ok := p.(pram.BatchCycler); ok {
		tb := &timedBatchCycler{t, b}
		switch {
		case isR && isS:
			return struct {
				*timedBatchCycler
				pram.Resettable
				pram.Snapshotter
			}{tb, r, s}
		case isR:
			return struct {
				*timedBatchCycler
				pram.Resettable
			}{tb, r}
		case isS:
			return struct {
				*timedBatchCycler
				pram.Snapshotter
			}{tb, s}
		}
		return tb
	}
	switch {
	case isR && isS:
		return struct {
			*timedProcessor
			pram.Resettable
			pram.Snapshotter
		}{t, r, s}
	case isR:
		return struct {
			*timedProcessor
			pram.Resettable
		}{t, r}
	case isS:
		return struct {
			*timedProcessor
			pram.Snapshotter
		}{t, s}
	}
	return t
}

// windowSink is the traced run's sink: a BatchSink (so quiet windows
// stay on) that counts the windows and the ticks inside them.
type windowSink struct {
	windows, ticks int64
}

func (*windowSink) CycleDone(pram.CycleEvent) {}
func (*windowSink) TickDone(pram.TickEvent)   {}
func (*windowSink) RunDone(pram.RunEvent)     {}

func (s *windowSink) BatchDone(ev pram.BatchEvent) {
	s.windows++
	s.ticks += int64(ev.Ticks)
}
