package adversary

import "repro/internal/pram"

// Recorder wraps an on-line adversary and records the failure pattern F
// it actually inflicts (the <tag, PID, t> triples of Definition 2.1, plus
// fail points). The recorded pattern can then be replayed with
// NewScheduled against a different run - turning any adaptive adversary
// into an off-line one, which is how the paper distinguishes the two:
// randomized algorithms like ACC are efficient against the *replayed*
// (off-line) pattern even when the *live* (on-line) adversary ruins them,
// because fresh coin flips decorrelate the run from the old pattern.
type Recorder struct {
	inner pram.Adversary

	pattern []Event
	failed  []bool // per-PID scratch: already recorded a failure this tick
}

// NewRecorder wraps inner, recording every decision it makes.
func NewRecorder(inner pram.Adversary) *Recorder {
	return &Recorder{inner: inner}
}

// Name implements pram.Adversary.
func (r *Recorder) Name() string { return r.inner.Name() + "+recorded" }

// Decide implements pram.Adversary. Failures are recorded in decision
// order, each PID once with the fail point the machine applies (its
// first entry), so a recording is a pure function of the run.
func (r *Recorder) Decide(v *pram.View) pram.Decision {
	dec := r.inner.Decide(v)
	if len(r.failed) < v.P {
		r.failed = make([]bool, v.P)
	}
	first := len(r.pattern)
	for _, f := range dec.Failures {
		if f.Point == pram.NoFailure || f.PID < 0 || f.PID >= v.P || r.failed[f.PID] {
			continue
		}
		r.failed[f.PID] = true
		r.pattern = append(r.pattern, Event{
			Tick: v.Tick, PID: f.PID, Kind: Fail, Point: f.Point,
		})
	}
	for _, e := range r.pattern[first:] {
		r.failed[e.PID] = false
	}
	for _, pid := range dec.Restarts {
		r.pattern = append(r.pattern, Event{Tick: v.Tick, PID: pid, Kind: Restart})
	}
	return dec
}

// QuiescentFor implements pram.Quiescence by delegating to the wrapped
// adversary. A skipped Decide records nothing, which is exactly right:
// the inner adversary would have decided nothing on those ticks.
func (r *Recorder) QuiescentFor(t int) int {
	if q, ok := r.inner.(pram.Quiescence); ok {
		return q.QuiescentFor(t)
	}
	return 0
}

// Pattern returns a copy of the recorded failure pattern.
func (r *Recorder) Pattern() []Event {
	out := make([]Event, len(r.pattern))
	copy(out, r.pattern)
	return out
}

// Replay returns an off-line adversary replaying the recorded pattern.
func (r *Recorder) Replay() *Scheduled { return NewScheduled(r.Pattern()) }

// SnapshotState implements pram.Snapshotter: the recorded pattern (four
// words per event) followed by the inner adversary's state, so a
// resumed recording run yields the same pattern file. A stateful inner
// adversary must itself implement pram.Snapshotter for the capture to
// be exact; stateless inner adversaries contribute nothing.
func (r *Recorder) SnapshotState() []pram.Word {
	state := make([]pram.Word, 0, 1+4*len(r.pattern))
	state = append(state, pram.Word(len(r.pattern)))
	for _, e := range r.pattern {
		state = append(state, pram.Word(e.Tick), pram.Word(e.PID), pram.Word(e.Kind), pram.Word(e.Point))
	}
	if s, ok := r.inner.(pram.Snapshotter); ok {
		state = append(state, s.SnapshotState()...)
	}
	return state
}

// RestoreState implements pram.Snapshotter.
func (r *Recorder) RestoreState(state []pram.Word) error {
	if len(state) < 1 {
		return pram.StateLenError("adversary: recorder", len(state), 1)
	}
	n := int(state[0])
	if n < 0 || len(state) < 1+4*n {
		return pram.StateLenError("adversary: recorder", len(state), 1+4*n)
	}
	r.pattern = r.pattern[:0]
	for i := 0; i < n; i++ {
		w := state[1+4*i:]
		r.pattern = append(r.pattern, Event{
			Tick:  int(w[0]),
			PID:   int(w[1]),
			Kind:  EventKind(w[2]),
			Point: pram.FailPoint(w[3]),
		})
	}
	rest := state[1+4*n:]
	if s, ok := r.inner.(pram.Snapshotter); ok {
		return s.RestoreState(rest)
	}
	if len(rest) != 0 {
		return pram.StateLenError("adversary: recorder inner", len(rest), 0)
	}
	return nil
}

var _ pram.Adversary = (*Recorder)(nil)
var _ pram.Snapshotter = (*Recorder)(nil)
