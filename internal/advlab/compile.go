package advlab

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/pram"
	"repro/internal/rng"
)

// Compiled is a Strategy compiled to a runnable adversary. It
// implements pram.Adversary, pram.Snapshotter (events, stall state,
// the (seed, draws) stream position, and the kill ledger all restore
// bit-identically), and pram.Quiescence (closed windows, exhausted
// budgets, and the off phases of periodic triggers are claimed as
// quiet, so Machine.TickBatch engages under compiled strategies
// exactly as it does under Scheduled patterns).
type Compiled struct {
	spec   Strategy
	name   string
	points []pram.FailPoint // per rule, resolved from Rule.Point

	rules []ruleState

	src *rng.Counting
	r   *rand.Rand

	// deadSince[pid] is the tick at which this strategy killed pid, or
	// -1. It is written when a kill is issued (prediction: a veto may
	// spare the processor, which the next sighting of an alive pid
	// repairs) and cleared on restart, so restart aging never needs a
	// per-tick scan — which is what keeps closed-trigger stretches
	// genuinely state-free and the Quiescence claims honest.
	deadSince []int

	perm []int // scratch for TargetRandom's partial Fisher-Yates

	// decision buffers and per-PID marks (bit 0: failure taken, bit 1:
	// restarted), reused across ticks and cleared at the entries set
	fails    []pram.Failure
	restarts []int
	mark     []uint8
}

// ruleState is one rule's runtime state.
type ruleState struct {
	events     int64 // failure+restart events issued, vs Budget.MaxEvents
	lastCount  int   // TriggerStall: last observed set-cell count (-1 before first look)
	lastChange int   // TriggerStall: tick the count last changed
}

// Compile validates the strategy and builds its adversary. Each call
// returns a fresh instance with zeroed runtime state; compiling the
// same spec twice yields adversaries with identical names and
// bit-identical behavior for the same machine.
func (s Strategy) Compile() (*Compiled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{
		spec:   s,
		name:   fmt.Sprintf("lab:%s#%s", s.Name, s.Digest()),
		points: make([]pram.FailPoint, len(s.Rules)),
		rules:  make([]ruleState, len(s.Rules)),
	}
	for i, r := range s.Rules {
		c.points[i], _ = failPoint(r.Point) // Validate checked it
		c.rules[i].lastCount = -1
	}
	return c, nil
}

// MustCompile is Compile for known-good strategies (the built-in set,
// test fixtures); it panics on error.
func MustCompile(s Strategy) *Compiled {
	c, err := s.Compile()
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements pram.Adversary: the strategy name qualified with the
// spec digest, so differently-configured strategies never share a
// bench-table row or journal key.
func (c *Compiled) Name() string { return c.name }

// Spec returns the strategy the adversary was compiled from.
func (c *Compiled) Spec() Strategy { return c.spec }

// ensure lazily initializes the seeded stream and the kill ledger.
func (c *Compiled) ensure(p int) {
	if c.r == nil {
		c.src = rng.NewCounting(c.spec.Seed)
		c.r = rand.New(c.src)
	}
	for len(c.deadSince) < p {
		c.deadSince = append(c.deadSince, -1)
	}
	if len(c.mark) < p {
		c.mark = make([]uint8, p)
	}
}

// Decide implements pram.Adversary. Rules apply in order; the first
// rule to claim a processor's fail point wins.
func (c *Compiled) Decide(v *pram.View) pram.Decision {
	c.ensure(v.P)
	c.fails, c.restarts = c.fails[:0], c.restarts[:0]

	// The set-cell count backing progress/stall triggers is computed at
	// most once per tick, and only on ticks where a live rule wants it.
	count := -1
	setCount := func() int {
		if count < 0 {
			count = 0
			for addr := 0; addr < v.N; addr++ {
				if v.Mem.Load(addr) != 0 {
					count++
				}
			}
		}
		return count
	}
	// The dead count backing Budget.MaxDead is read at its first use;
	// kills and restarts issued from then on adjust it.
	dead := -1
	deadCount := func() int {
		if dead < 0 {
			dead = v.States.NumDead()
		}
		return dead
	}

	for i := range c.spec.Rules {
		rule := &c.spec.Rules[i]
		st := &c.rules[i]
		if rule.Budget.MaxEvents > 0 && st.events >= rule.Budget.MaxEvents {
			continue
		}
		if !c.fires(rule, st, v, setCount) {
			continue
		}
		for _, pid := range c.targets(rule, v) {
			if pid < 0 || pid >= v.P {
				continue
			}
			if rule.Budget.MaxEvents > 0 && st.events >= rule.Budget.MaxEvents {
				break
			}
			switch v.States.At(pid) {
			case pram.Alive:
				if c.deadSince[pid] >= 0 {
					// An earlier kill was vetoed or superseded; the
					// processor is demonstrably alive, so forget it.
					c.deadSince[pid] = -1
				}
				if c.mark[pid]&1 != 0 {
					continue
				}
				if rule.Budget.MaxDead > 0 && deadCount() >= rule.Budget.MaxDead {
					continue
				}
				c.mark[pid] |= 1
				c.fails = append(c.fails, pram.Failure{PID: pid, Point: c.points[i]})
				c.deadSince[pid] = v.Tick
				st.events++
				if dead >= 0 {
					dead++
				}
			case pram.Dead:
				if rule.RestartAfter <= 0 || c.mark[pid]&2 != 0 {
					continue
				}
				since := c.deadSince[pid]
				if since < 0 {
					// Killed before our ledger saw it (a restored
					// legacy state); adopt it now and age from here.
					c.deadSince[pid] = v.Tick
					continue
				}
				if v.Tick-since < rule.RestartAfter {
					continue
				}
				c.restarts = append(c.restarts, pid)
				c.mark[pid] |= 2
				c.deadSince[pid] = -1
				st.events++
				if dead >= 0 {
					dead--
				}
			}
		}
	}
	for _, f := range c.fails {
		c.mark[f.PID] = 0
	}
	for _, pid := range c.restarts {
		c.mark[pid] = 0
	}
	return pram.Decision{Failures: c.fails, Restarts: c.restarts}
}

// fires evaluates one rule's trigger at the view's tick, updating the
// stall tracker. Only TriggerStall mutates state here, which is why
// ruleQuiet reports 0 for live stall rules.
func (c *Compiled) fires(rule *Rule, st *ruleState, v *pram.View, setCount func() int) bool {
	t := &rule.Trigger
	switch t.Kind {
	case TriggerAlways:
		return true
	case TriggerWindow:
		return v.Tick >= t.From && (t.To == 0 || v.Tick < t.To)
	case TriggerEvery:
		duty := t.Duty
		if duty == 0 {
			duty = 1
		}
		return v.Tick%t.Period < duty
	case TriggerProgress:
		max := t.MaxFrac
		if max == 0 {
			max = 1
		}
		frac := float64(setCount()) / float64(v.N)
		return frac >= t.MinFrac && frac < max
	case TriggerStall:
		cnt := setCount()
		if cnt != st.lastCount {
			st.lastCount = cnt
			st.lastChange = v.Tick
		}
		return v.Tick-st.lastChange >= t.Stall
	}
	return false
}

// targets resolves one firing rule's PID set into the shared scratch
// slice (valid until the next call).
func (c *Compiled) targets(rule *Rule, v *pram.View) []int {
	g := &rule.Target
	switch g.Kind {
	case TargetPIDs:
		return g.PIDs
	case TargetRandom:
		k := min(g.K, v.P)
		// Partial Fisher-Yates: exactly k draws per firing, so the
		// (seed, draws) stream position is a pure function of how
		// often the rule fired — what makes snapshots exact.
		if cap(c.perm) < v.P {
			c.perm = make([]int, v.P)
		}
		c.perm = c.perm[:v.P]
		for i := range c.perm {
			c.perm[i] = i
		}
		for i := 0; i < k; i++ {
			j := i + c.r.Intn(v.P-i)
			c.perm[i], c.perm[j] = c.perm[j], c.perm[i]
		}
		return c.perm[:k]
	case TargetRotate:
		step := g.Step
		if step == 0 {
			step = 1
		}
		k := min(g.K, v.P)
		start := (v.Tick * step) % v.P
		if cap(c.perm) < k {
			c.perm = make([]int, k)
		}
		c.perm = c.perm[:k]
		for i := range c.perm {
			c.perm[i] = (start + i) % v.P
		}
		return c.perm
	case TargetAllButOne:
		survivor := v.Tick % v.P
		if cap(c.perm) < v.P {
			c.perm = make([]int, v.P)
		}
		c.perm = c.perm[:0]
		for pid := 0; pid < v.P; pid++ {
			if pid != survivor {
				c.perm = append(c.perm, pid)
			}
		}
		return c.perm
	}
	return nil
}

// QuiescentFor implements pram.Quiescence: the min over the rules'
// provably-quiet horizons. A rule is quiet while its budget is
// exhausted, before a window opens, after a bounded window closes, or
// through the off phase of a periodic trigger; progress and stall
// rules (whose firing depends on memory, and whose trackers mutate
// per tick) report 0 while they have budget, as do open triggers.
func (c *Compiled) QuiescentFor(t int) int {
	quiet := math.MaxInt / 2
	for i := range c.spec.Rules {
		q := c.ruleQuiet(&c.spec.Rules[i], &c.rules[i], t)
		if q < quiet {
			quiet = q
		}
		if quiet == 0 {
			return 0
		}
	}
	return quiet
}

func (c *Compiled) ruleQuiet(rule *Rule, st *ruleState, t int) int {
	const forever = math.MaxInt / 2
	if rule.Budget.MaxEvents > 0 && st.events >= rule.Budget.MaxEvents {
		// Decide skips the rule before it touches any state or draws.
		return forever
	}
	switch rule.Trigger.Kind {
	case TriggerWindow:
		if t < rule.Trigger.From {
			return rule.Trigger.From - t
		}
		if rule.Trigger.To > 0 && t >= rule.Trigger.To {
			return forever
		}
		return 0
	case TriggerEvery:
		duty := rule.Trigger.Duty
		if duty == 0 {
			duty = 1
		}
		if phase := t % rule.Trigger.Period; phase >= duty {
			return rule.Trigger.Period - phase
		}
		return 0
	default:
		// always / progress / stall: firing now, or unpredictable.
		return 0
	}
}

// SnapshotState implements pram.Snapshotter: per-rule event counters
// and stall trackers, the stream position as (seed, draws), and the
// kill ledger.
func (c *Compiled) SnapshotState() []pram.Word {
	c.ensure(0)
	state := make([]pram.Word, 0, 1+3*len(c.rules)+2+1+len(c.deadSince))
	state = append(state, pram.Word(len(c.rules)))
	for _, st := range c.rules {
		state = append(state, pram.Word(st.events), pram.Word(st.lastCount), pram.Word(st.lastChange))
	}
	seed, draws := c.src.State()
	state = append(state, pram.Word(seed), pram.Word(draws))
	state = append(state, pram.Word(len(c.deadSince)))
	for _, t := range c.deadSince {
		state = append(state, pram.Word(t))
	}
	return state
}

// RestoreState implements pram.Snapshotter.
func (c *Compiled) RestoreState(state []pram.Word) error {
	if len(state) < 1 {
		return pram.StateLenError("advlab: strategy", len(state), 1)
	}
	if int(state[0]) != len(c.rules) {
		return fmt.Errorf("advlab: strategy %s: snapshot has %d rules, spec has %d",
			c.name, state[0], len(c.rules))
	}
	want := 1 + 3*len(c.rules) + 2 + 1
	if len(state) < want {
		return pram.StateLenError("advlab: strategy", len(state), want)
	}
	c.ensure(0)
	off := 1
	for i := range c.rules {
		c.rules[i].events = int64(state[off])
		c.rules[i].lastCount = int(state[off+1])
		c.rules[i].lastChange = int(state[off+2])
		off += 3
	}
	c.src.Restore(int64(state[off]), uint64(state[off+1]))
	off += 2
	n := int(state[off])
	off++
	if n < 0 || len(state) != off+n {
		return pram.StateLenError("advlab: strategy ledger", len(state)-off, n)
	}
	c.deadSince = c.deadSince[:0]
	for i := 0; i < n; i++ {
		c.deadSince = append(c.deadSince, int(state[off+i]))
	}
	return nil
}

var _ pram.Adversary = (*Compiled)(nil)
var _ pram.Snapshotter = (*Compiled)(nil)
var _ pram.Quiescence = (*Compiled)(nil)
