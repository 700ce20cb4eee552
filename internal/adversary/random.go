package adversary

import (
	"math"
	"math/rand"

	"repro/internal/pram"
	"repro/internal/rng"
)

// Random fails each alive processor independently with probability
// FailProb per tick and restarts each dead processor with probability
// RestartProb per tick. With MaxEvents > 0 the total number of failure and
// restart events is capped, giving a failure pattern of bounded size M for
// the M-sweeps of Theorem 4.3. Runs are deterministic for a fixed Seed.
type Random struct {
	FailProb    float64
	RestartProb float64
	MaxEvents   int64
	Seed        int64
	// Points optionally weights the fail points; nil means always
	// FailBeforeReads.
	Points []pram.FailPoint

	src    *rng.Counting
	r      *rand.Rand
	events int64

	// decision buffers, reused across ticks; the first Decide sizes
	// them for P, so ticks under churn never grow them
	fails    []pram.Failure
	restarts []int
}

// NewRandom returns a Random adversary with the given per-tick fail and
// restart probabilities.
func NewRandom(failProb, restartProb float64, seed int64) *Random {
	return &Random{FailProb: failProb, RestartProb: restartProb, Seed: seed}
}

// Name implements pram.Adversary.
func (r *Random) Name() string { return "random" }

// ensure lazily initializes the random stream. The counting source is
// bit-identical to the plain math/rand source for the same seed, so
// seeded runs are unchanged by the snapshot support.
func (r *Random) ensure() {
	if r.r == nil {
		r.src = rng.NewCounting(r.Seed)
		r.r = rand.New(r.src)
	}
}

// Decide implements pram.Adversary.
func (r *Random) Decide(v *pram.View) pram.Decision {
	r.ensure()
	if cap(r.fails) < v.P {
		r.fails, r.restarts = make([]pram.Failure, 0, v.P), make([]int, 0, v.P)
	}
	r.fails, r.restarts = r.fails[:0], r.restarts[:0]
	for pid := 0; pid < v.States.Len(); pid++ {
		if r.MaxEvents > 0 && r.events >= r.MaxEvents {
			break
		}
		switch v.States.At(pid) {
		case pram.Alive:
			if r.r.Float64() < r.FailProb {
				r.fails = append(r.fails, pram.Failure{PID: pid, Point: r.point()})
				r.events++
			}
		case pram.Dead:
			if r.r.Float64() < r.RestartProb {
				r.restarts = append(r.restarts, pid)
				r.events++
			}
		}
	}
	return pram.Decision{Failures: r.fails, Restarts: r.restarts}
}

// QuiescentFor implements pram.Quiescence. A budgeted adversary whose
// event budget is exhausted is quiescent forever — and, crucially,
// Decide then draws nothing from the random stream (the loop breaks
// before any draw), so skipping Decide is invisible even to
// SnapshotState's (seed, draws) capture. With budget remaining it
// reports 0: Decide consumes one draw per live or dead processor every
// tick, even at zero probabilities, so no tick may be skipped.
func (r *Random) QuiescentFor(int) int {
	if r.MaxEvents > 0 && r.events >= r.MaxEvents {
		return math.MaxInt / 2
	}
	return 0
}

// Events reports how many failure/restart events the adversary has issued.
// The machine may have ignored some (e.g. liveness vetoes), so the metrics
// are authoritative; this is a convenience for tests.
func (r *Random) Events() int64 { return r.events }

// SnapshotState implements pram.Snapshotter: the issued-event count and
// the stream position as (seed, draws).
func (r *Random) SnapshotState() []pram.Word {
	r.ensure()
	seed, draws := r.src.State()
	return []pram.Word{pram.Word(r.events), pram.Word(seed), pram.Word(draws)}
}

// RestoreState implements pram.Snapshotter.
func (r *Random) RestoreState(state []pram.Word) error {
	if len(state) != 3 {
		return pram.StateLenError("adversary: random", len(state), 3)
	}
	r.ensure()
	r.events = int64(state[0])
	r.src.Restore(int64(state[1]), uint64(state[2]))
	return nil
}

func (r *Random) point() pram.FailPoint {
	if len(r.Points) == 0 {
		return pram.FailBeforeReads
	}
	return r.Points[r.r.Intn(len(r.Points))]
}

var _ pram.Adversary = (*Random)(nil)
var _ pram.Snapshotter = (*Random)(nil)
var _ pram.Quiescence = (*Random)(nil)
