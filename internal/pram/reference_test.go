package pram_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/adversary"
	"repro/internal/advlab"
	"repro/internal/pram"
	"repro/internal/writeall"
)

// refMachine is the reference stepper the production machine is checked
// against: a direct transcription of the model of Section 2.1 and
// Definitions 2.1–2.3. Every tick it scans all P processors, runs each
// alive one's update cycle against the tick-start memory, hands the
// adversary a view with Resync set (so an adversary that keeps an index
// rebuilds it from scratch every tick), applies the failures, commits
// the surviving writes in PID order, applies the restarts and polls
// Done. It has unpacked memory and no done hint, processor pooling,
// batching or live set; everything it allocates is per tick.
type refMachine struct {
	cfg     pram.Config
	alg     pram.Algorithm
	adv     pram.Adversary
	mem     *pram.Memory
	states  []pram.ProcState
	procs   []pram.Processor
	stables []pram.Word
	tick    int
	met     pram.Metrics
	ended   bool
}

func newRefMachine(cfg pram.Config, alg pram.Algorithm, adv pram.Adversary) *refMachine {
	n, p := cfg.N, cfg.P
	if cfg.Policy == 0 {
		cfg.Policy = pram.Common
	}
	if cfg.MaxTicks == 0 {
		cfg.MaxTicks = pram.DefaultMaxTicks
	}
	if cfg.Legality == 0 {
		cfg.Legality = pram.VetoSpare
	}
	r := &refMachine{
		cfg: cfg, alg: alg, adv: adv,
		mem:     pram.NewMemory(alg.MemorySize(n, p)),
		states:  make([]pram.ProcState, p),
		procs:   make([]pram.Processor, p),
		stables: make([]pram.Word, p),
		met:     pram.Metrics{N: n, P: p},
	}
	alg.Setup(r.mem, n, p)
	for pid := range r.procs {
		r.states[pid] = pram.Alive
		r.procs[pid] = alg.NewProcessor(pid, n, p)
	}
	return r
}

func (r *refMachine) run() (pram.Metrics, error) {
	for {
		done, err := r.step()
		if err != nil {
			return r.met, err
		}
		if done {
			return r.met, nil
		}
	}
}

// end delivers the run's one RunEvent and returns err.
func (r *refMachine) end(err error) error {
	if !r.ended {
		r.ended = true
		if r.cfg.Sink != nil {
			r.cfg.Sink.RunDone(pram.RunEvent{Metrics: r.met, Err: err})
		}
	}
	return err
}

func (r *refMachine) view(intents []*pram.Intent, alive int) *pram.View {
	return &pram.View{
		Tick: r.tick, N: r.cfg.N, P: r.cfg.P,
		Mem:     r.mem.View(),
		States:  pram.NewStateView(r.states),
		Intents: intents,
		Alive:   alive,
		Resync:  true,
	}
}

// refCommit is one attempted cycle's outcome: the prefix of its writes
// that lands and what the cycle completed.
type refCommit struct {
	pid                       int
	fail                      pram.FailPoint
	writes                    []pram.WriteOp
	started, completed, halts bool
	stableSet                 bool
	stable                    pram.Word
}

func (r *refMachine) step() (bool, error) {
	n, p := r.cfg.N, r.cfg.P
	if r.alg.Done(r.mem.View(), n, p) {
		r.end(nil)
		return true, nil
	}
	if r.tick >= r.cfg.MaxTicks {
		return false, r.end(fmt.Errorf("%w (tick=%d, algorithm=%s, adversary=%s)",
			pram.ErrTickLimit, r.tick, r.alg.Name(), r.adv.Name()))
	}
	before := r.met

	// Every alive processor executes its cycle against the tick-start
	// memory; writes are only buffered.
	ctxs := make([]*pram.Ctx, p)
	intents := make([]*pram.Intent, p)
	for pid := 0; pid < p; pid++ {
		if r.states[pid] != pram.Alive {
			continue
		}
		ctx := pram.NewCtx(pid, n, p, r.tick, r.mem.View(), r.stables[pid])
		st := r.procs[pid].Cycle(ctx)
		ctxs[pid] = ctx
		intents[pid] = &pram.Intent{Reads: ctx.ReadLog(), Writes: ctx.WriteLog(),
			Halts: st == pram.Halt, Snapshot: ctx.Snapshots() > 0}
	}
	alive := 0
	for pid, ctx := range ctxs {
		if ctx == nil {
			continue
		}
		alive++
		if err := r.validate(pid, ctx); err != nil {
			return false, r.end(err)
		}
	}
	if alive == 0 {
		return r.deadTick(intents)
	}

	dec := r.adv.Decide(r.view(intents, alive))
	fail := make([]pram.FailPoint, p)
	seen := make([]bool, p)
	for _, f := range dec.Failures {
		if f.Point == pram.NoFailure || f.PID < 0 || f.PID >= p || seen[f.PID] {
			continue
		}
		seen[f.PID] = true
		fail[f.PID] = f.Point
	}
	survivors := 0
	for pid, in := range intents {
		if in != nil && fail[pid] == pram.NoFailure {
			survivors++
		}
	}
	if survivors == 0 {
		if r.cfg.Legality == pram.ErrorOnIllegal {
			return false, r.end(fmt.Errorf("%w at tick %d (adversary=%s)",
				pram.ErrIllegalAdversary, r.tick, r.adv.Name()))
		}
		for pid, in := range intents {
			if in != nil {
				fail[pid] = pram.NoFailure
				break
			}
		}
		r.met.Vetoes++
	}

	// Failures strike where the adversary chose; a cycle failed after
	// its first write commits exactly that write.
	var commits []refCommit
	for pid := 0; pid < p; pid++ {
		if r.states[pid] != pram.Alive {
			continue
		}
		ctx, fp := ctxs[pid], fail[pid]
		c := refCommit{pid: pid, fail: fp}
		switch fp {
		case pram.NoFailure:
			c.writes = ctx.WriteLog()
			c.stable, c.stableSet = ctx.StableUpdate()
			c.halts = intents[pid].Halts
			c.completed, c.started = true, true
		case pram.FailBeforeReads:
		case pram.FailAfterReads:
			c.started = true
		case pram.FailAfterWrite1:
			c.started = true
			if w := ctx.WriteLog(); len(w) > 0 {
				c.writes = w[:1]
			}
		default:
			return false, r.end(fmt.Errorf("pram: adversary %s returned invalid fail point %d for pid %d",
				r.adv.Name(), fp, pid))
		}
		if fp != pram.NoFailure {
			r.states[pid] = pram.Dead
			r.procs[pid] = nil
			r.met.Failures++
			if c.started {
				r.met.Incomplete++
			}
		}
		commits = append(commits, c)
	}
	if err := r.commit(commits, intents); err != nil {
		return false, r.end(err)
	}
	for _, c := range commits {
		if !c.completed {
			continue
		}
		r.met.Completed++
		if c.stableSet {
			r.stables[c.pid] = c.stable
		}
		if c.halts {
			r.states[c.pid] = pram.Halted
			r.procs[c.pid] = nil
		}
	}
	if s := r.cfg.Sink; s != nil {
		for _, c := range commits {
			arrayWrites := 0
			for _, w := range c.writes {
				if w.Addr < n {
					arrayWrites++
				}
			}
			s.CycleDone(pram.CycleEvent{Tick: r.tick, PID: c.pid, Fail: c.fail, Started: c.started,
				Completed: c.completed, Writes: len(c.writes), ArrayWrites: arrayWrites,
				Halted: c.completed && c.halts})
		}
	}
	r.restart(dec.Restarts)
	return r.endTick(alive, before, true)
}

// deadTick is a tick with no alive processor: the adversary must restart
// one, or (under VetoSpare) the lowest-PID dead processor restarts.
func (r *refMachine) deadTick(intents []*pram.Intent) (bool, error) {
	before := r.met
	dec := r.adv.Decide(r.view(intents, 0))
	restarts := append([]int(nil), dec.Restarts...)
	restarted := false
	for _, pid := range restarts {
		if pid >= 0 && pid < r.cfg.P && r.states[pid] == pram.Dead {
			restarted = true
		}
	}
	if !restarted {
		if r.cfg.Legality == pram.ErrorOnIllegal {
			return false, r.end(fmt.Errorf("%w: no alive processors and no restart at tick %d",
				pram.ErrIllegalAdversary, r.tick))
		}
		for pid, st := range r.states {
			if st == pram.Dead {
				restarts = append(restarts, pid)
				r.met.Vetoes++
				break
			}
		}
	}
	r.restart(restarts)
	return r.endTick(0, before, false)
}

func (r *refMachine) restart(pids []int) {
	for _, pid := range pids {
		if pid < 0 || pid >= r.cfg.P || r.states[pid] != pram.Dead {
			continue
		}
		r.states[pid] = pram.Alive
		r.procs[pid] = r.alg.NewProcessor(pid, r.cfg.N, r.cfg.P)
		r.met.Restarts++
	}
}

// endTick advances the clock, reports the tick and checks termination
// (a tick with no alive processor leaves the Done check to the next).
func (r *refMachine) endTick(alive int, before pram.Metrics, checkDone bool) (bool, error) {
	r.tick++
	r.met.Ticks = r.tick
	if s := r.cfg.Sink; s != nil {
		s.TickDone(pram.TickEvent{Tick: r.tick - 1, Alive: alive,
			Completed: int(r.met.Completed - before.Completed),
			Failures:  int(r.met.Failures - before.Failures),
			Restarts:  int(r.met.Restarts - before.Restarts)})
	}
	if checkDone && r.alg.Done(r.mem.View(), r.cfg.N, r.cfg.P) {
		r.end(nil)
		return true, nil
	}
	for _, st := range r.states {
		if st != pram.Halted {
			return false, nil
		}
	}
	return false, r.end(fmt.Errorf("%w (algorithm=%s)", pram.ErrAllHalted, r.alg.Name()))
}

func (r *refMachine) validate(pid int, ctx *pram.Ctx) error {
	reads, writes, snaps := len(ctx.ReadLog()), len(ctx.WriteLog()), ctx.Snapshots()
	r.met.MaxReads = max(r.met.MaxReads, reads)
	r.met.MaxWrites = max(r.met.MaxWrites, writes)
	r.met.Snapshots += int64(snaps)
	if snaps > 0 && !r.cfg.AllowSnapshot {
		return fmt.Errorf("%w (algorithm=%s, pid=%d)", pram.ErrSnapshotDisallowed, r.alg.Name(), pid)
	}
	readBudget := pram.MaxReadsPerCycle
	if b, ok := r.alg.(pram.ReadBudgeter); ok {
		readBudget = b.ReadBudget()
	}
	if snaps == 0 && (reads > readBudget || writes > pram.MaxWritesPerCycle) {
		return fmt.Errorf("%w (algorithm=%s, pid=%d, reads=%d, writes=%d)",
			pram.ErrCycleLimit, r.alg.Name(), pid, reads, writes)
	}
	return nil
}

// commit lands the tick's surviving writes simultaneously: writers of
// one cell are resolved together under the write policy, lowest PID
// first.
func (r *refMachine) commit(commits []refCommit, intents []*pram.Intent) error {
	type write struct {
		pid int
		op  pram.WriteOp
	}
	var ws []write
	for _, c := range commits {
		for _, w := range c.writes {
			ws = append(ws, write{c.pid, w})
		}
	}
	if len(ws) == 0 {
		return nil
	}
	policy := r.cfg.Policy
	if policy == pram.EREW {
		var reads []int
		for _, c := range commits {
			if c.started {
				reads = append(reads, intents[c.pid].Reads...)
			}
		}
		sort.Ints(reads)
		for i := 1; i < len(reads); i++ {
			if reads[i] == reads[i-1] {
				return fmt.Errorf("%w: concurrent read of cell %d at tick %d",
					pram.ErrExclusiveViolation, reads[i], r.tick)
			}
		}
	}
	sort.SliceStable(ws, func(i, j int) bool {
		if ws[i].op.Addr != ws[j].op.Addr {
			return ws[i].op.Addr < ws[j].op.Addr
		}
		return ws[i].pid < ws[j].pid
	})
	for i := 0; i < len(ws); {
		j := i + 1
		for j < len(ws) && ws[j].op.Addr == ws[i].op.Addr {
			j++
		}
		first := ws[i]
		switch policy {
		case pram.Common:
			for _, w := range ws[i+1 : j] {
				if w.op.Val != first.op.Val {
					return fmt.Errorf("%w: cell %d gets %d (pid %d) and %d (pid %d) at tick %d",
						pram.ErrCommonViolation, w.op.Addr, first.op.Val, first.pid, w.op.Val, w.pid, r.tick)
				}
			}
		case pram.CREW, pram.EREW:
			if j-i > 1 {
				return fmt.Errorf("%w: concurrent write of cell %d at tick %d",
					pram.ErrExclusiveViolation, first.op.Addr, r.tick)
			}
		}
		r.mem.Store(first.op.Addr, first.op.Val)
		i = j
	}
	return nil
}

// eventLog is a Sink that records the whole event stream as text.
type eventLog struct{ events []string }

func (l *eventLog) CycleDone(ev pram.CycleEvent) {
	l.events = append(l.events, fmt.Sprintf("c%+v", ev))
}
func (l *eventLog) TickDone(ev pram.TickEvent) { l.events = append(l.events, fmt.Sprintf("t%+v", ev)) }
func (l *eventLog) RunDone(ev pram.RunEvent) {
	l.events = append(l.events, fmt.Sprintf("r%+v err=%v", ev.Metrics, ev.Err))
}

// refAlgorithms and refAdversaries name the differential grid's
// components; each constructor returns a fresh instance, because
// algorithms and adversaries carry run state.
var refAlgorithms = []struct {
	name string
	new  func(seed int64) pram.Algorithm
	tree bool // lays out X's progress tree at base N
}{
	{"X", func(int64) pram.Algorithm { return writeall.NewX() }, true},
	{"combined", func(int64) pram.Algorithm { return writeall.NewCombined() }, true},
	{"ACC", func(seed int64) pram.Algorithm { return writeall.NewACC(seed) }, true},
	{"V", func(int64) pram.Algorithm { return writeall.NewV() }, false},
	{"W", func(int64) pram.Algorithm { return writeall.NewW() }, false},
	{"trivial", func(int64) pram.Algorithm { return writeall.NewTrivial() }, false},
	{"collider", func(seed int64) pram.Algorithm { return collider{seed} }, false},
}

// collider is a seeded algorithm that reaches every branch of the
// commit's conflict resolution, which the Write-All algorithms, whose
// concurrent writers always agree, do not. Every cycle writes one or two
// cells of a four-cell window that slides one cell per tick, and one
// cycle in four writes the same cell twice. Each write carries the
// value the cell's writers agree on this tick, 1 or 2, except one write
// in 32 carries the other. So ticks see agreeing and disagreeing
// concurrent writers and same-PID duplicates, and CREW/EREW runs see
// concurrent writes. It has no private state and is done once every
// cell of [0, N) is non-zero.
type collider struct{ seed int64 }

func (collider) Name() string                                { return "collider" }
func (collider) MemorySize(n, _ int) int                     { return n }
func (collider) Setup(*pram.Memory, int, int)                {}
func (collider) DoneCells(n, _ int) int                      { return n }
func (c collider) NewProcessor(int, int, int) pram.Processor { return colliderProc(c) }

func (collider) Done(mem pram.MemoryView, n, _ int) bool {
	for i := 0; i < n; i++ {
		if mem.Load(i) == 0 {
			return false
		}
	}
	return true
}

type colliderProc struct{ seed int64 }

func (c colliderProc) Cycle(ctx *pram.Ctx) pram.Status {
	n, tick := ctx.N(), ctx.Tick()
	r := splitMix(uint64(c.seed), uint64(tick), uint64(ctx.PID()))
	w := min(n, 4)
	a := (tick + int(r&0xff)%w) % n
	ctx.Write(a, c.value(tick, a, r>>8&31 == 0))
	switch r >> 16 & 3 {
	case 0:
		ctx.Write(a, c.value(tick, a, r>>24&31 == 0))
	case 1, 2:
		b := (tick + int(r>>32&0xff)%w) % n
		ctx.Write(b, c.value(tick, b, r>>24&31 == 0))
	}
	return pram.Continue
}

// value is the word a write to cell carries at tick: the value its
// writers agree on, or the other one when deviant.
func (c colliderProc) value(tick, cell int, deviant bool) pram.Word {
	v := pram.Word(1 + splitMix(uint64(c.seed), uint64(tick), uint64(cell)+1<<32)&1)
	if deviant {
		v = 3 - v
	}
	return v
}

func (colliderProc) SnapshotState() []pram.Word { return nil }

func (colliderProc) RestoreState(state []pram.Word) error {
	if len(state) != 0 {
		return pram.StateLenError("collider processor", len(state), 0)
	}
	return nil
}

// splitMix hashes its arguments with SplitMix64's finalizer.
func splitMix(xs ...uint64) uint64 {
	var z uint64
	for _, x := range xs {
		z += x + 0x9E3779B97F4A7C15
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	return z
}

var refAdversaries = []struct {
	name     string
	new      func(n, p int, seed int64) pram.Adversary
	treeOnly bool // reads X's tree cells, so needs a tree algorithm
}{
	{"postorder", func(n, p int, _ int64) pram.Adversary { return refPostOrder(n, p) }, true},
	{"thrashing", func(int, int, int64) pram.Adversary { return &adversary.Thrashing{} }, false},
	{"rotating", func(int, int, int64) pram.Adversary { return &adversary.Thrashing{Rotate: true} }, false},
	{"halving", func(int, int, int64) pram.Adversary { return adversary.NewHalving() }, false},
	{"halving-failstop", func(int, int, int64) pram.Adversary {
		h := adversary.NewHalving()
		h.NoRestarts = true
		return h
	}, false},
	{"random", func(n, _ int, seed int64) pram.Adversary {
		a := adversary.NewRandom(0.2, 0.5, seed)
		a.MaxEvents = int64(4 * n)
		a.Points = []pram.FailPoint{pram.FailBeforeReads, pram.FailAfterReads, pram.FailAfterWrite1}
		return a
	}, false},
	{"stalking", func(n, p int, _ int64) pram.Adversary {
		return writeall.NewStalking(writeall.NewX().Layout(n, p), true)
	}, false},
	{"lab", func(n, p int, seed int64) pram.Adversary { return advlab.MustCompile(refLabStrategy(n, p, seed)) }, false},
	{"composite", func(n, p int, seed int64) pram.Adversary {
		return &refLayered{parts: []pram.Adversary{refPostOrder(n, p), adversary.NewRandom(0.05, 0.3, seed)}, to: math.MaxInt}
	}, true},
	{"window", func(n, p int, _ int64) pram.Adversary {
		return &refLayered{parts: []pram.Adversary{refPostOrder(n, p)}, from: 3, to: 3 + 4*n}
	}, true},
}

func refPostOrder(n, p int) pram.Adversary {
	return writeall.NewPostOrder(writeall.NewX().Layout(n, p))
}

// refLayered lists its parts' decisions, in part order, on the ticks in
// [from, to) and decides nothing outside them. The machine applies the
// first failure listed for a PID and ignores a restart of a processor
// that is not dead, so the parts act as one adversary. The grid resumes
// from snapshots and batches quiet windows, so refLayered carries its
// parts' snapshot state and reports the stretches outside [from, to) as
// quiescent; inside, every part is consulted every tick.
type refLayered struct {
	parts    []pram.Adversary
	from, to int
	fails    []pram.Failure
	restarts []int
}

func (l *refLayered) Name() string { return "layered" }

func (l *refLayered) Decide(v *pram.View) pram.Decision {
	l.fails, l.restarts = l.fails[:0], l.restarts[:0]
	if v.Tick >= l.from && v.Tick < l.to {
		for _, p := range l.parts {
			dec := p.Decide(v)
			l.fails = append(l.fails, dec.Failures...)
			l.restarts = append(l.restarts, dec.Restarts...)
		}
	}
	return pram.Decision{Failures: l.fails, Restarts: l.restarts}
}

func (l *refLayered) QuiescentFor(t int) int {
	switch {
	case t < l.from:
		return l.from - t
	case t >= l.to:
		return math.MaxInt / 2
	}
	return 0
}

// SnapshotState prefixes each part's state with its length.
func (l *refLayered) SnapshotState() []pram.Word {
	var state []pram.Word
	for _, p := range l.parts {
		ps := p.(pram.Snapshotter).SnapshotState()
		state = append(append(state, pram.Word(len(ps))), ps...)
	}
	return state
}

func (l *refLayered) RestoreState(state []pram.Word) error {
	for _, p := range l.parts {
		if len(state) == 0 || len(state) < 1+int(state[0]) {
			return pram.StateLenError("layered adversary", len(state), 1)
		}
		n := int(state[0])
		if err := p.(pram.Snapshotter).RestoreState(state[1 : 1+n]); err != nil {
			return err
		}
		state = state[1+n:]
	}
	return nil
}

// refLabStrategy generates a periodic or progress-triggered lab strategy
// with restarts and a dead-processor budget.
func refLabStrategy(n, p int, seed int64) advlab.Strategy {
	rng := rand.New(rand.NewSource(seed))
	points := []string{advlab.PointBeforeReads, advlab.PointAfterReads, advlab.PointAfterWrite1}
	rule := advlab.Rule{
		Trigger:      advlab.Trigger{Kind: advlab.TriggerEvery, Period: 2 + rng.Intn(5), Duty: 1},
		Target:       advlab.Target{Kind: advlab.TargetRandom, K: 1 + rng.Intn(max(p/2, 1))},
		Point:        points[rng.Intn(len(points))],
		RestartAfter: 1 + rng.Intn(3),
		Budget:       advlab.Budget{MaxEvents: int64(2 * n), MaxDead: max(p/2, 1)},
	}
	if rng.Intn(2) == 0 {
		rule.Trigger = advlab.Trigger{Kind: advlab.TriggerProgress, MinFrac: 0.25, MaxFrac: 0.75}
		rule.Target = advlab.Target{Kind: advlab.TargetRotate, K: rule.Target.K, Step: 1 + rng.Intn(3)}
	}
	return advlab.Strategy{Name: "generated", Seed: rng.Int63(), Rules: []advlab.Rule{rule}}
}

// refCase is one point of the differential grid.
type refCase struct {
	alg, adv int
	n, p     int
	seed     int64
	legality pram.LegalityMode
	policy   pram.WritePolicy // zero means COMMON
	resumeAt int
}

func (c refCase) String() string {
	return fmt.Sprintf("%s/%s/n=%d/p=%d/seed=%d/legality=%d/policy=%d/resume=%d", refAlgorithms[c.alg].name,
		refAdversaries[c.adv].name, c.n, c.p, c.seed, c.legality, c.policy, c.resumeAt)
}

func (c refCase) config(sink pram.Sink) pram.Config {
	return pram.Config{N: c.n, P: c.p, MaxTicks: 1 << 11, Legality: c.legality, Policy: c.policy, Sink: sink}
}

func (c refCase) components() (pram.Algorithm, pram.Adversary) {
	return refAlgorithms[c.alg].new(c.seed), refAdversaries[c.adv].new(c.n, c.p, c.seed)
}

// refOutcome is everything a run makes observable.
type refOutcome struct {
	Metrics pram.Metrics
	Memory  []pram.Word
	Events  []string
	Err     string
	Panic   string
}

// catchPanic runs f, turning a panic into the outcome's Panic field:
// some pairings (post-order against an algorithm without X's tree)
// panic, and both machines must then panic alike.
func catchPanic(f func() refOutcome) (out refOutcome) {
	defer func() {
		if v := recover(); v != nil {
			out = refOutcome{Panic: fmt.Sprint(v)}
		}
	}()
	return f()
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func runReference(c refCase, withEvents bool) refOutcome {
	return catchPanic(func() refOutcome {
		var log eventLog
		var sink pram.Sink
		if withEvents {
			sink = &log
		}
		alg, adv := c.components()
		r := newRefMachine(c.config(sink), alg, adv)
		met, err := r.run()
		return refOutcome{Metrics: met, Memory: r.mem.CopyInto(nil), Events: log.events, Err: errString(err)}
	})
}

// runProduction runs c on the pooled runner the way a resumed
// production run goes: TickBatch(64) up to resumeAt, a snapshot through
// its binary encoding, and Runner.Resume with fresh components for the
// rest. The run without events also packs the memory.
func runProduction(t testing.TB, r *pram.Runner, c refCase, withEvents bool) refOutcome {
	return catchPanic(func() refOutcome {
		var log eventLog
		var sink pram.Sink
		if withEvents {
			sink = &log
		}
		cfg := c.config(sink)
		cfg.Packed = !withEvents
		alg, adv := c.components()
		m, err := r.Machine(cfg, alg, adv)
		if err != nil {
			t.Fatalf("%v: Machine: %v", c, err)
		}
		for m.Tick() < c.resumeAt {
			_, done, err := m.TickBatch(min(r.BatchTicks, c.resumeAt-m.Tick()))
			if done || err != nil {
				return refOutcome{Metrics: m.Metrics(), Memory: m.Memory().CopyInto(nil), Events: log.events, Err: errString(err)}
			}
		}
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatalf("%v: Snapshot: %v", c, err)
		}
		var buf bytes.Buffer
		if err := pram.WriteSnapshot(&buf, snap); err != nil {
			t.Fatalf("%v: WriteSnapshot: %v", c, err)
		}
		if snap, err = pram.ReadSnapshot(&buf); err != nil {
			t.Fatalf("%v: ReadSnapshot: %v", c, err)
		}
		alg, adv = c.components()
		met, err := r.Resume(cfg, alg, adv, snap)
		return refOutcome{Metrics: met, Memory: r.PooledMachine().Memory().CopyInto(nil), Events: log.events, Err: errString(err)}
	})
}

// checkAgainstReference compares a production run of c with the
// reference stepper's, with and without an event sink (the machine only
// takes quiet windows without a per-tick sink). Packed memory faults on
// an out-of-range load with a different index than unpacked memory, so
// the packed run compares panics by presence only.
func checkAgainstReference(t testing.TB, r *pram.Runner, c refCase) {
	t.Helper()
	for _, withEvents := range []bool{false, true} {
		want := runReference(c, withEvents)
		got := runProduction(t, r, c, withEvents)
		packed := !withEvents
		if want.Panic != got.Panic && (!packed || want.Panic == "" || got.Panic == "") {
			t.Fatalf("%v events=%v: panic %q, reference panics %q", c, withEvents, got.Panic, want.Panic)
		}
		if got.Err != want.Err {
			t.Fatalf("%v events=%v: error %q, reference %q", c, withEvents, got.Err, want.Err)
		}
		if got.Metrics != want.Metrics {
			t.Fatalf("%v events=%v: metrics\n got %+v\nwant %+v", c, withEvents, got.Metrics, want.Metrics)
		}
		if !reflect.DeepEqual(got.Memory, want.Memory) {
			t.Fatalf("%v events=%v: final memory differs from the reference", c, withEvents)
		}
		if len(got.Events) != len(want.Events) {
			t.Fatalf("%v: %d events, reference %d", c, len(got.Events), len(want.Events))
		}
		for i := range got.Events {
			if got.Events[i] != want.Events[i] {
				t.Fatalf("%v: event %d is %s, reference %s", c, i, got.Events[i], want.Events[i])
			}
		}
	}
}

// TestMachineMatchesReference runs the production machine (pooled
// Runner, packed or unpacked memory, TickBatch(64), a snapshot round
// trip and resume at a mid tick) against the reference stepper over a grid of
// algorithms, adversaries, small shapes and both legality modes, and
// requires identical metrics, final memory, event stream and error. The
// collider runs under all five write policies, so conflicting writes,
// the stores that land below a violation and the error text are
// compared against the reference's sorted resolution too.
func TestMachineMatchesReference(t *testing.T) {
	r := &pram.Runner{BatchTicks: 64}
	defer r.Close()
	shapes := [][2]int{{16, 16}, {32, 8}, {13, 5}}
	for ai, alg := range refAlgorithms {
		policies := []pram.WritePolicy{0}
		if alg.name == "collider" {
			policies = []pram.WritePolicy{pram.Common, pram.Arbitrary, pram.Priority, pram.CREW, pram.EREW}
		}
		for vi, adv := range refAdversaries {
			if adv.treeOnly && !alg.tree {
				continue
			}
			for si, shape := range shapes {
				for _, legality := range []pram.LegalityMode{pram.VetoSpare, pram.ErrorOnIllegal} {
					for _, policy := range policies {
						c := refCase{alg: ai, adv: vi, n: shape[0], p: shape[1], seed: int64(si + 1),
							legality: legality, policy: policy, resumeAt: 5 + 7*si}
						checkAgainstReference(t, r, c)
					}
				}
			}
		}
	}
}

// FuzzMachineVsReference is TestMachineMatchesReference with fuzzed
// components, shape, seed and resume tick; the resume argument's top
// bits also pick the legality mode and the write policy. Post-order is
// paired with every algorithm: against the ones without X's tree it
// must read the same unrelated cells, or panic the same way, as the
// reference.
func FuzzMachineVsReference(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(16), uint8(16), int64(1), uint16(9))
	f.Add(uint8(1), uint8(8), uint8(24), uint8(6), int64(7), uint16(30))
	f.Add(uint8(2), uint8(9), uint8(9), uint8(9), int64(3), uint16(0))
	f.Add(uint8(4), uint8(0), uint8(16), uint8(16), int64(2), uint16(12))
	f.Add(uint8(3), uint8(5), uint8(20), uint8(7), int64(5), uint16(4))
	f.Add(uint8(5), uint8(3), uint8(12), uint8(4), int64(8), uint16(1<<12|6))  // ARBITRARY
	f.Add(uint8(0), uint8(5), uint8(16), uint8(16), int64(9), uint16(3<<12|2)) // CREW
	f.Add(uint8(0), uint8(6), uint8(8), uint8(8), int64(4), uint16(4<<12|3))   // EREW
	f.Add(uint8(6), uint8(1), uint8(16), uint8(16), int64(1), uint16(2))       // collider, COMMON
	f.Add(uint8(6), uint8(5), uint8(13), uint8(5), int64(2), uint16(1<<12|3))  // collider, ARBITRARY
	f.Add(uint8(6), uint8(3), uint8(9), uint8(3), int64(3), uint16(2<<12|4))   // collider, PRIORITY
	f.Add(uint8(6), uint8(2), uint8(7), uint8(1), int64(4), uint16(3<<12|1))   // collider, CREW
	f.Add(uint8(6), uint8(7), uint8(12), uint8(2), int64(5), uint16(4<<12|2))  // collider, EREW
	r := &pram.Runner{BatchTicks: 64}
	f.Fuzz(func(t *testing.T, alg, adv, n, p uint8, seed int64, resumeAt uint16) {
		c := refCase{
			alg: int(alg) % len(refAlgorithms), adv: int(adv) % len(refAdversaries),
			n: 1 + int(n)%40, p: 1 + int(p)%40, seed: seed,
			legality: pram.LegalityMode(1 + int(resumeAt>>15)),
			policy:   pram.WritePolicy(1 + int(resumeAt>>12&7)%5),
			resumeAt: int(resumeAt&0xfff) % 200,
		}
		checkAgainstReference(t, r, c)
	})
}
