package adversary

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"repro/internal/pram"
)

// Composite unions the decisions of several adversaries each tick. When
// two adversaries disagree about a processor's fail point, the earlier
// one in the list wins. Use it to layer attacks, e.g. background random
// churn plus a targeted strategy.
type Composite struct {
	parts []pram.Adversary

	// decision buffers and per-PID restart-listed marks, reused across
	// ticks; marks are cleared at the entries set, so a tick costs its
	// events, not P
	fails    []pram.Failure
	restarts []int
	listed   []bool
}

// NewComposite combines adversaries; order sets fail-point priority.
// The returned value implements pram.Quiescence only when every part
// does (reporting the min over the parts' claims); with any
// non-Quiescence part the machine must call Decide every tick, so the
// interface is withheld rather than over-claimed as a constant 0.
func NewComposite(parts ...pram.Adversary) pram.Adversary {
	c := &Composite{parts: parts}
	for _, p := range parts {
		if _, ok := p.(pram.Quiescence); !ok {
			return c
		}
	}
	return &quiescentComposite{Composite: c}
}

// Name implements pram.Adversary.
func (c *Composite) Name() string {
	name := "composite("
	for i, p := range c.parts {
		if i > 0 {
			name += "+"
		}
		name += p.Name()
	}
	return name + ")"
}

// Decide implements pram.Adversary. The parts' failures are listed in
// part order; the machine applies the first entry for a PID, which is
// the fail-point priority. Restarts are listed once per PID.
func (c *Composite) Decide(v *pram.View) pram.Decision {
	c.fails, c.restarts = c.fails[:0], c.restarts[:0]
	if len(c.listed) < v.P {
		c.listed = make([]bool, v.P)
	}
	for _, p := range c.parts {
		dec := p.Decide(v)
		c.fails = append(c.fails, dec.Failures...)
		for _, pid := range dec.Restarts {
			if pid < 0 || pid >= v.P || c.listed[pid] {
				continue
			}
			c.listed[pid] = true
			c.restarts = append(c.restarts, pid)
		}
	}
	for _, pid := range c.restarts {
		c.listed[pid] = false
	}
	return pram.Decision{Failures: c.fails, Restarts: c.restarts}
}

// SnapshotState implements pram.Snapshotter, concatenating each part's
// state behind a per-part length prefix. Parts without Snapshotter are
// treated as stateless.
func (c *Composite) SnapshotState() []pram.Word {
	var state []pram.Word
	for _, p := range c.parts {
		var ps []pram.Word
		if s, ok := p.(pram.Snapshotter); ok {
			ps = s.SnapshotState()
		}
		state = append(state, pram.Word(len(ps)))
		state = append(state, ps...)
	}
	return state
}

// RestoreState implements pram.Snapshotter.
func (c *Composite) RestoreState(state []pram.Word) error {
	for _, p := range c.parts {
		if len(state) < 1 {
			return pram.StateLenError("adversary: composite", len(state), 1)
		}
		n := int(state[0])
		if n < 0 || len(state) < 1+n {
			return pram.StateLenError("adversary: composite part", len(state)-1, n)
		}
		part := state[1 : 1+n]
		state = state[1+n:]
		if s, ok := p.(pram.Snapshotter); ok {
			if err := s.RestoreState(part); err != nil {
				return err
			}
		} else if n != 0 {
			return pram.StateLenError("adversary: composite stateless part", n, 0)
		}
	}
	if len(state) != 0 {
		return pram.StateLenError("adversary: composite trailing", len(state), 0)
	}
	return nil
}

var _ pram.Adversary = (*Composite)(nil)
var _ pram.Snapshotter = (*Composite)(nil)

// quiescentComposite is the Composite NewComposite returns when every
// part implements pram.Quiescence. Keeping the method off Composite
// itself means a composite with an unpredictable part never claims the
// interface at all, so Machine.TickBatch's type assertion — not a
// runtime 0 — decides the fallback.
type quiescentComposite struct {
	*Composite
}

// QuiescentFor implements pram.Quiescence: the union of the parts'
// decisions is empty and state-free exactly while every part's is, so
// the composite's quiet window is the min over the parts' claims.
func (c *quiescentComposite) QuiescentFor(t int) int {
	quiet := math.MaxInt / 2
	for _, p := range c.parts {
		if q := p.(pram.Quiescence).QuiescentFor(t); q < quiet {
			quiet = q
		}
	}
	return quiet
}

var _ pram.Adversary = (*quiescentComposite)(nil)
var _ pram.Snapshotter = (*quiescentComposite)(nil)
var _ pram.Quiescence = (*quiescentComposite)(nil)

// Window activates an inner adversary only during the tick interval
// [From, To) (To = 0 means forever). Outside the window it issues nothing,
// modeling failure bursts.
type Window struct {
	Inner    pram.Adversary
	From, To int
}

// NewWindow restricts inner to ticks in [from, to); to = 0 means no upper
// bound.
func NewWindow(inner pram.Adversary, from, to int) *Window {
	return &Window{Inner: inner, From: from, To: to}
}

// Name implements pram.Adversary. The window bounds are part of the
// name: two differently-placed windows over the same inner adversary
// are different strategies, and bench tables and sweep-journal keys
// must not conflate them.
func (w *Window) Name() string {
	if w.To > 0 {
		return fmt.Sprintf("%s@[%d,%d)", w.Inner.Name(), w.From, w.To)
	}
	return fmt.Sprintf("%s@[%d,)", w.Inner.Name(), w.From)
}

// Decide implements pram.Adversary.
func (w *Window) Decide(v *pram.View) pram.Decision {
	if v.Tick < w.From || (w.To > 0 && v.Tick >= w.To) {
		return pram.Decision{}
	}
	return w.Inner.Decide(v)
}

// QuiescentFor implements pram.Quiescence. Outside the window Decide
// returns an empty Decision without consulting the inner adversary at
// all, so before From the window is quiescent for the gap to From
// (whatever the inner adversary would say), and at or past a positive
// To it is quiescent forever. Inside the window it delegates to the
// inner adversary — 0 (per-tick fallback) when the inner does not
// implement Quiescence — and an inner claim reaching To extends to
// forever, because the window never reopens.
func (w *Window) QuiescentFor(t int) int {
	const forever = math.MaxInt / 2
	if w.To > 0 && t >= w.To {
		return forever
	}
	if t < w.From {
		return w.From - t
	}
	q, ok := w.Inner.(pram.Quiescence)
	if !ok {
		return 0
	}
	quiet := q.QuiescentFor(t)
	if w.To > 0 && quiet >= w.To-t {
		return forever
	}
	return quiet
}

// SnapshotState implements pram.Snapshotter, forwarding to the inner
// adversary (the window bounds are configuration, not run state).
func (w *Window) SnapshotState() []pram.Word {
	if s, ok := w.Inner.(pram.Snapshotter); ok {
		return s.SnapshotState()
	}
	return nil
}

// RestoreState implements pram.Snapshotter.
func (w *Window) RestoreState(state []pram.Word) error {
	if s, ok := w.Inner.(pram.Snapshotter); ok {
		return s.RestoreState(state)
	}
	if len(state) != 0 {
		return pram.StateLenError("adversary: window", len(state), 0)
	}
	return nil
}

var _ pram.Adversary = (*Window)(nil)
var _ pram.Snapshotter = (*Window)(nil)
var _ pram.Quiescence = (*Window)(nil)

// Targeted fails a fixed set of processors whenever they are alive and
// optionally revives them after RevivalDelay ticks, modeling persistent
// faults in specific hardware.
type Targeted struct {
	// PIDs is the set of persistently attacked processors.
	PIDs []int
	// Point is the fail point used (zero means FailBeforeReads).
	Point pram.FailPoint
	// Revive restarts attacked processors every tick (they die again on
	// arrival); when false they stay dead after the first kill.
	Revive bool

	// decision buffers, reused across ticks
	fails    []pram.Failure
	restarts []int
}

// Name implements pram.Adversary. The configuration is part of the
// name: short PID sets are spelled out, long ones digest to a count
// plus an FNV hash, and a non-default fail point or the revive flag
// append as suffixes, so two differently-configured instances never
// share a bench-table row or sweep-journal key.
func (t *Targeted) Name() string {
	var b strings.Builder
	b.WriteString("targeted(")
	if len(t.PIDs) <= 8 {
		for i, pid := range t.PIDs {
			if i > 0 {
				b.WriteByte('+')
			}
			fmt.Fprintf(&b, "%d", pid)
		}
	} else {
		h := fnv.New32a()
		for _, pid := range t.PIDs {
			fmt.Fprintf(h, "%d,", pid)
		}
		fmt.Fprintf(&b, "#%d:%08x", len(t.PIDs), h.Sum32())
	}
	if t.Point != pram.NoFailure && t.Point != pram.FailBeforeReads {
		fmt.Fprintf(&b, ";%s", t.Point)
	}
	if t.Revive {
		b.WriteString(";revive")
	}
	b.WriteByte(')')
	return b.String()
}

// Decide implements pram.Adversary.
func (t *Targeted) Decide(v *pram.View) pram.Decision {
	t.fails, t.restarts = t.fails[:0], t.restarts[:0]
	point := t.Point
	if point == pram.NoFailure {
		point = pram.FailBeforeReads
	}
	for _, pid := range t.PIDs {
		if pid < 0 || pid >= v.P {
			continue
		}
		switch v.States.At(pid) {
		case pram.Alive:
			t.fails = append(t.fails, pram.Failure{PID: pid, Point: point})
		case pram.Dead:
			if t.Revive {
				t.restarts = append(t.restarts, pid)
			}
		}
	}
	return pram.Decision{Failures: t.fails, Restarts: t.restarts}
}

var _ pram.Adversary = (*Targeted)(nil)
