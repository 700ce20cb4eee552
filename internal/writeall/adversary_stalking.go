package writeall

import "repro/internal/pram"

// Stalking is the Section 5 adversary against randomized tree-walking
// Write-All algorithms (the paper describes it against the ACC algorithm
// of [MSP 90]): it "chooses a single leaf in the binary tree employed by
// ACC, and fails all processors that touch that leaf". In the restartable
// model every failed processor is revived, so the stalked leaf is only
// completed when every remaining live processor touches it simultaneously
// (at which point the model's liveness rule forces one through) - an event
// that is exponentially unlikely under random descent, which is what blows
// up the expected work. In the fail-stop (no restart) variant it kills
// touchers only while more than one processor remains, leaving the last
// processor to finish everything alone.
//
// It is an on-line adversary: it reacts to each tick's intents. Replaying
// a previously recorded pattern with adversary.Scheduled demonstrates the
// off-line case, under which ACC is efficient.
type Stalking struct {
	lay       TreeLayout
	target    int // stalked array element
	noRestart bool

	// decision buffers, reused across ticks
	fails    []pram.Failure
	restarts []int
}

// NewStalking returns the stalking adversary for a tree-layout algorithm
// (use ACC.Layout or X.Layout). The stalked leaf is the last array
// element; restartable selects the failure/restart model variant.
func NewStalking(lay TreeLayout, restartable bool) *Stalking {
	return &Stalking{lay: lay, target: lay.N - 1, noRestart: !restartable}
}

// Name implements pram.Adversary.
func (s *Stalking) Name() string {
	if s.noRestart {
		return "stalking-failstop"
	}
	return "stalking"
}

// Decide implements pram.Adversary.
func (s *Stalking) Decide(v *pram.View) pram.Decision {
	s.fails, s.restarts = s.fails[:0], s.restarts[:0]
	alive := v.Alive
	for pid := v.States.NextAlive(0); pid >= 0; pid = v.States.NextAlive(pid + 1) {
		in := v.Intents[pid]
		if in == nil {
			continue
		}
		if s.noRestart && alive <= 1 {
			break
		}
		if s.touchesTarget(in) {
			s.fails = append(s.fails, pram.Failure{PID: pid, Point: pram.FailAfterReads})
			if s.noRestart {
				alive--
			}
		}
	}
	if !s.noRestart {
		for pid := v.States.NextDead(0); pid >= 0; pid = v.States.NextDead(pid + 1) {
			s.restarts = append(s.restarts, pid)
		}
	}
	return pram.Decision{Failures: s.fails, Restarts: s.restarts}
}

// touchesTarget reports whether the intended cycle writes the stalked
// element or its leaf's done bit.
func (s *Stalking) touchesTarget(in *pram.Intent) bool {
	leafDone := s.lay.D(s.lay.Leaf(s.target))
	for _, w := range in.Writes {
		if w.Addr == s.target || w.Addr == leafDone {
			return true
		}
	}
	return false
}

// SnapshotState implements pram.Snapshotter: the stalked target is
// fixed at construction, so the adversary carries no run state. The
// explicit (empty) implementation documents that statelessness to the
// checkpoint subsystem.
func (s *Stalking) SnapshotState() []pram.Word { return nil }

// RestoreState implements pram.Snapshotter.
func (s *Stalking) RestoreState(state []pram.Word) error {
	if len(state) != 0 {
		return pram.StateLenError("writeall: stalking adversary", len(state), 0)
	}
	return nil
}

var _ pram.Adversary = (*Stalking)(nil)
var _ pram.Snapshotter = (*Stalking)(nil)
