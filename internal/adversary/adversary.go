// Package adversary provides on-line failure/restart adversaries for the
// restartable fail-stop PRAM of package pram.
//
// The adversaries here are algorithm-agnostic; they rely only on the
// machine view and on the repository-wide convention that Write-All
// algorithms keep the input array x in shared cells [0, N). Adversaries
// tied to a particular algorithm's data structures (the post-order
// adversary against algorithm X of Theorem 4.8 and the leaf-stalking
// adversary against ACC of Section 5) live next to those algorithms in
// package writeall.
package adversary

import (
	"math"
	"sort"

	"repro/internal/pram"
)

// None is the failure-free adversary.
type None struct{}

// Name implements pram.Adversary.
func (None) Name() string { return "none" }

// Decide implements pram.Adversary: no failures, no restarts.
func (None) Decide(*pram.View) pram.Decision { return pram.Decision{} }

// QuiescentFor implements pram.Quiescence: the failure-free adversary
// is quiescent and stateless forever.
func (None) QuiescentFor(int) int { return math.MaxInt / 2 }

var _ pram.Adversary = None{}
var _ pram.Quiescence = None{}

// EventKind tags a scheduled failure-pattern event.
type EventKind int

const (
	// Fail kills a processor.
	Fail EventKind = iota + 1
	// Restart revives a processor.
	Restart
)

// Event is one triple of the failure pattern F of Definition 2.1:
// <tag, PID, t>, extended with the fail point within the update cycle.
type Event struct {
	Tick  int
	PID   int
	Kind  EventKind
	Point pram.FailPoint // used for Fail events; zero means FailBeforeReads
}

// Scheduled replays a fixed failure pattern. It models an off-line
// (non-adaptive) adversary: the pattern is chosen before the run.
type Scheduled struct {
	byTick map[int]pram.Decision
	ticks  []int // sorted unique event ticks, for QuiescentFor
}

// NewScheduled builds a replay adversary from a pattern. Events with the
// same tick apply together in that tick; of several Fail events for one
// PID in a tick, the last one sets the fail point.
func NewScheduled(pattern []Event) *Scheduled {
	byTick := make(map[int]pram.Decision)
	at := make(map[[2]int]int) // (tick, pid) -> index in that tick's Failures
	for _, e := range pattern {
		dec := byTick[e.Tick]
		switch e.Kind {
		case Fail:
			p := e.Point
			if p == pram.NoFailure {
				p = pram.FailBeforeReads
			}
			key := [2]int{e.Tick, e.PID}
			if i, ok := at[key]; ok {
				dec.Failures[i].Point = p
			} else {
				at[key] = len(dec.Failures)
				dec.Failures = append(dec.Failures, pram.Failure{PID: e.PID, Point: p})
			}
		case Restart:
			dec.Restarts = append(dec.Restarts, e.PID)
		}
		byTick[e.Tick] = dec
	}
	ticks := make([]int, 0, len(byTick))
	for t := range byTick {
		ticks = append(ticks, t)
	}
	sort.Ints(ticks)
	return &Scheduled{byTick: byTick, ticks: ticks}
}

// Name implements pram.Adversary.
func (s *Scheduled) Name() string { return "scheduled" }

// Decide implements pram.Adversary: the tick's decision, built once at
// construction.
func (s *Scheduled) Decide(v *pram.View) pram.Decision { return s.byTick[v.Tick] }

// QuiescentFor implements pram.Quiescence: the gap to the pattern's
// next scheduled event tick. Decide is a pure lookup, so skipping it
// over the gap is invisible.
func (s *Scheduled) QuiescentFor(t int) int {
	i := sort.SearchInts(s.ticks, t)
	if i == len(s.ticks) {
		return math.MaxInt / 2
	}
	return s.ticks[i] - t
}

var _ pram.Adversary = (*Scheduled)(nil)
var _ pram.Quiescence = (*Scheduled)(nil)
