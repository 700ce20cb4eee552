package adversary

import "repro/internal/pram"

// Thrashing is the adversary of Example 2.2: every tick it lets all
// processors perform their reads and computation, fails all but one of
// them immediately before their writes, and then restarts every failed
// processor. Exactly one update cycle completes per tick, so the
// charge-everything work S' grows like P per tick (quadratic for Write-All
// with P = N) while the completed work S grows by one per tick - the
// observation that motivates the paper's update-cycle accounting.
//
// With Rotate set, the surviving processor rotates with the clock, so no
// processor ever completes more than one consecutive cycle. This is the
// pattern under which an iterative algorithm like V cannot finish any
// iteration and fails to terminate - the weakness Theorem 4.9's combined
// algorithm cures - while X still progresses one cycle per tick.
type Thrashing struct {
	// Rotate makes the spared processor rotate each tick instead of
	// always sparing the lowest-PID live processor.
	Rotate bool

	// decision buffers, reused across ticks
	fails    []pram.Failure
	restarts []int
}

// Name implements pram.Adversary.
func (a *Thrashing) Name() string {
	if a.Rotate {
		return "thrashing-rotating"
	}
	return "thrashing"
}

// Decide implements pram.Adversary.
func (a *Thrashing) Decide(v *pram.View) pram.Decision {
	s := v.States
	survivor := -1
	if a.Rotate {
		want := v.Tick % v.P
		if s.At(want) == pram.Alive {
			survivor = want
		}
	}
	if survivor == -1 {
		survivor = s.NextAlive(0)
	}
	a.fails = a.fails[:0]
	for pid := s.NextAlive(0); pid >= 0; pid = s.NextAlive(pid + 1) {
		if pid != survivor {
			a.fails = append(a.fails, pram.Failure{PID: pid, Point: pram.FailAfterReads})
		}
	}
	a.restarts = a.restarts[:0]
	for pid := s.NextDead(0); pid >= 0; pid = s.NextDead(pid + 1) {
		a.restarts = append(a.restarts, pid)
	}
	return pram.Decision{Failures: a.fails, Restarts: a.restarts}
}

var _ pram.Adversary = (*Thrashing)(nil)
