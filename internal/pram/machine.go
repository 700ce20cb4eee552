package pram

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"

	"repro/internal/faultinject"
)

// LegalityMode selects how the machine handles an adversary decision that
// violates the model's liveness rule ("at any time ... at least one
// processor is executing an update cycle that successfully completes",
// Section 2.1, condition 2(i)).
type LegalityMode int

const (
	// VetoSpare silently spares one targeted processor so that at least
	// one cycle completes, and counts the veto in the metrics. This is
	// the default: it turns any adversary into a legal one.
	VetoSpare LegalityMode = iota + 1
	// ErrorOnIllegal aborts the run with an error instead.
	ErrorOnIllegal
)

// Config parameterizes a machine.
type Config struct {
	// N is the input size; P the number of processors. Both must be
	// positive.
	N, P int
	// Policy is the concurrent-access policy; the zero value means
	// Common, the paper's model.
	Policy WritePolicy
	// AllowSnapshot permits the unit-cost whole-memory read instruction
	// assumed by Theorem 3.2. Ordinary runs leave it false.
	AllowSnapshot bool
	// MaxTicks bounds the run; zero means DefaultMaxTicks. Exceeding it
	// returns ErrTickLimit (it indicates a non-terminating run).
	MaxTicks int
	// Legality selects liveness-rule enforcement; zero means VetoSpare.
	Legality LegalityMode
	// Packed opts the run into the bit-packed shared-memory layout: the
	// Write-All prefix the algorithm volunteers through ArrayDoneHinter
	// is stored one bit per cell, 64 cells per word, cutting the N=10⁷-
	// 10⁸ footprint 64× and letting batch fills run a word per op. The
	// packing is observationally invisible — runs are bit-identical to
	// the unpacked layout (a non-binary store into the packed prefix
	// promotes the memory back to one Word per cell; see Memory). It is
	// a no-op for algorithms without an array hint.
	Packed bool
	// Sink, if non-nil, receives the machine's instrumentation stream:
	// one CycleEvent per attempted update cycle, one TickEvent per tick,
	// and one RunEvent at termination. All sink methods are invoked from
	// the commit phase on the stepping goroutine, in deterministic order.
	Sink Sink
	// Scheduler, if non-nil, selects which live processors execute a
	// cycle at each tick; unscheduled processors idle (uncharged,
	// unfailed). It models the asynchronous PRAMs the paper's
	// introduction situates itself against ([CZ 89], [Gib 89], [Nis 90],
	// [MSP 90]): an adversarial schedule is a deterministic form of
	// asynchrony. If the schedule leaves no live processor runnable, the
	// machine runs all of them (a schedule cannot stop the clock). The
	// machine resolves the schedule once per tick on the stepping
	// goroutine, so the function is never called concurrently.
	Scheduler func(tick, pid int) bool
}

// DefaultMaxTicks bounds runs whose Config does not set MaxTicks.
const DefaultMaxTicks = 1 << 26

// Sentinel errors returned by Run.
var (
	// ErrTickLimit reports that the run did not terminate within the
	// configured tick budget.
	ErrTickLimit = errors.New("pram: tick limit exceeded")
	// ErrIllegalAdversary reports a liveness-rule violation under
	// ErrorOnIllegal.
	ErrIllegalAdversary = errors.New("pram: adversary violates liveness rule")
	// ErrAllHalted reports that every processor exited but the
	// algorithm's Done predicate is still false (an algorithm bug).
	ErrAllHalted = errors.New("pram: all processors halted before completion")
	// ErrCycleLimit reports an update cycle exceeding the read/write
	// bounds of Section 2.1.
	ErrCycleLimit = errors.New("pram: update cycle exceeded read/write bounds")
	// ErrCommonViolation reports concurrent writers disagreeing on a
	// COMMON CRCW machine.
	ErrCommonViolation = errors.New("pram: COMMON write conflict with differing values")
	// ErrExclusiveViolation reports a concurrent access forbidden by a
	// CREW or EREW policy.
	ErrExclusiveViolation = errors.New("pram: concurrent access violates exclusivity policy")
	// ErrSnapshotDisallowed reports use of the Theorem 3.2 snapshot
	// instruction on a machine that does not allow it.
	ErrSnapshotDisallowed = errors.New("pram: snapshot instruction not allowed by config")
)

// Machine simulates runs of an Algorithm against an Adversary. A machine
// is built once by New and can be recycled for further runs with Reset,
// which reuses every allocation of the previous run; see Runner for the
// pooled pattern.
type Machine struct {
	cfg  Config
	alg  Algorithm
	adv  Adversary
	sink Sink

	mem     *Memory
	ps      procSet
	procs   []Processor
	stables []Word
	ctxs    []*Ctx

	// retired stashes Resettable processors of dead or halted PIDs so a
	// later restart (or the next pooled run) can recycle them instead of
	// allocating through Algorithm.NewProcessor. resets[pid] is pid's
	// processor (in procs or retired) as a Resettable, nil when it is
	// not one; it is resolved once per processor, so kills and restarts
	// make no type assertions.
	retired []Processor
	resets  []Resettable

	// readBudget is the update-cycle read bound: MaxReadsPerCycle, or
	// what the algorithm declares through ReadBudgeter. Reset resolves
	// it once, so the per-cycle check reads an int.
	readBudget int

	// hintLen/remaining implement the incremental Done counter for
	// ArrayDoneHinter algorithms: remaining counts zero cells in
	// [0, hintLen), maintained by store. hintLen == 0 means the hint is
	// off and Done is polled.
	hintLen   int
	remaining int

	tick    int
	metrics Metrics
	ended   bool

	// per-tick scratch, reused across ticks
	intents  []*Intent
	intentsB []Intent
	pending  []pendingCommit
	view     View
	sched    []bool
	readBuf  []int
	// writeBuf holds the tick's first writer of each written cell, in
	// the order commitWrites meets them; cells indexes it by address
	// (an open-addressing table of 1<<cellBits slots, a slot valid when
	// its gen is cellGen). Reset sizes both from P and the cycle write
	// budget, so only a tick that writes more (snapshot cycles skip the
	// budget check) grows them.
	writeBuf []taggedWrite
	cells    []cellSlot
	cellBits uint
	cellGen  uint32
	// bctx is the reused batch-cycle context handed to BatchCycler
	// processors by TickBatch's quiet-window path; a machine field so
	// steady-state batched runs stay allocation-free.
	bctx BatchCtx

	// failBuf is the per-PID resolution of the adversary's failure list,
	// so the apply phase reads each live PID's fail point by index;
	// failSet lists the PIDs it holds a fail point for, so clearing it
	// costs the tick's failures, not P.
	failBuf []FailPoint
	failSet []int

	// changed accumulates the PIDs whose state changed since the last
	// Decide, and resync is set until the first Decide after Reset or
	// RestoreSnapshot; both are handed to the adversary in its View.
	changed []int
	resync  bool

	// fiCycle is the resolved kernel.cycle failpoint (nil when fault
	// injection is off); cyclePanic holds the tick's first recovered
	// cycle panic, which is the lowest-PID one because attempts run in
	// PID order.
	fiCycle    *faultinject.Point
	cyclePanic *CyclePanicError

	// violations records adversary liveness-rule breaches (capped at
	// maxViolations records; violationCount is exact).
	violations     []Violation
	violationCount int64

	closed bool
}

type pendingCommit struct {
	pid       int
	writes    []WriteOp // prefix to commit; aliases the PID's Ctx buffers
	fail      FailPoint
	stableSet bool
	stable    Word
	halts     bool
	completed bool // whole cycle completed (charged)
	started   bool // at least one instruction executed (S' accounting)
}

// New constructs a machine for one run.
func New(cfg Config, alg Algorithm, adv Adversary) (*Machine, error) {
	m := &Machine{}
	if err := m.Reset(cfg, alg, adv); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset reinitializes the machine for a fresh run of alg against adv,
// reusing every allocation the previous run left behind: shared memory,
// contexts, scratch buffers, and — when alg is the same Algorithm value
// as the previous run and its processors implement Resettable — the
// processors themselves. A reset machine is
// bit-identical in behavior to one built by New with the same arguments
// (the pooled-equivalence property test holds it to that); the only
// intentional exception is algorithms whose NewProcessor draws fresh
// per-incarnation state, which opt out by not implementing Resettable.
// Reset must not be called concurrently with Step or Run.
func (m *Machine) Reset(cfg Config, alg Algorithm, adv Adversary) error {
	if m.closed {
		return errors.New("pram: Reset on closed machine")
	}
	if cfg.N <= 0 || cfg.P <= 0 {
		return fmt.Errorf("pram: N and P must be positive, got N=%d P=%d", cfg.N, cfg.P)
	}
	if cfg.Policy == 0 {
		cfg.Policy = Common
	}
	if cfg.MaxTicks == 0 {
		cfg.MaxTicks = DefaultMaxTicks
	}
	if cfg.Legality == 0 {
		cfg.Legality = VetoSpare
	}
	sameAlg := algSameInstance(m.alg, alg)
	m.cfg, m.alg, m.adv, m.sink = cfg, alg, adv, cfg.Sink
	m.readBudget = MaxReadsPerCycle
	if b, ok := alg.(ReadBudgeter); ok {
		m.readBudget = b.ReadBudget()
	}

	p := cfg.P
	m.ps.reset(p)
	m.procs = grow(m.procs, p)
	m.retired = grow(m.retired, p)
	m.resets = grow(m.resets, p)
	m.stables = grow(m.stables, p)
	m.ctxs = grow(m.ctxs, p)
	m.intents = grow(m.intents, p)
	m.intentsB = grow(m.intentsB, p)
	m.failBuf = grow(m.failBuf, p)
	if cap(m.changed) < 2*p {
		// A tick kills or halts each live PID at most once and restarts
		// each dead one at most once.
		m.changed = make([]int, 0, 2*p)
	}
	if cap(m.failSet) < p {
		m.failSet = make([]int, 0, p)
	}
	if !sameAlg {
		// Stale processors beyond the previous run's P could otherwise
		// resurface in a later grow and be recycled for the wrong
		// algorithm; instance-gating is only sound if every stashed
		// processor belongs to the current instance.
		clear(m.procs[:cap(m.procs)])
		clear(m.retired[:cap(m.retired)])
		clear(m.resets[:cap(m.resets)])
	}
	if cap(m.pending) < p {
		m.pending = make([]pendingCommit, 0, p)
	}
	m.pending = m.pending[:0]
	m.sizeCommit(p * MaxWritesPerCycle)
	if cfg.Scheduler != nil {
		m.sched = grow(m.sched, p)
	} else {
		m.sched = nil
	}

	size := alg.MemorySize(cfg.N, p)
	if m.mem == nil {
		m.mem = &Memory{}
	}
	m.mem.ResetPacked(size, m.packedLen(size))
	alg.Setup(m.mem, cfg.N, p)

	view := m.mem.View()
	for pid := 0; pid < p; pid++ {
		m.stables[pid] = 0
		m.intents[pid] = nil
		m.procs[pid] = m.nextProcessor(pid, sameAlg)
		c := m.ctxs[pid]
		if c == nil {
			c = &Ctx{}
			m.ctxs[pid] = c
		}
		c.pid, c.n, c.p, c.mem = pid, cfg.N, p, view
		c.reset(0, 0)
	}
	m.tick = 0
	m.ended = false
	m.metrics = Metrics{N: cfg.N, P: p}
	m.resetTickState()
	m.initDoneHint()
	m.resetRobustness()
	return nil
}

// resetTickState clears the cross-tick scratch for a fresh or restored
// run: no fail points pending and no change list, and the next Decide
// is told to resync.
func (m *Machine) resetTickState() {
	clear(m.failBuf)
	m.failSet = m.failSet[:0]
	m.changed = m.changed[:0]
	m.resync = true
}

// grow returns s with length n, reusing capacity when possible. Elements
// are not cleared: Reset overwrites every slot it reads, and the
// processor slices are cleared explicitly on algorithm change.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// algSameInstance reports whether a and b are the same comparable
// Algorithm value — the gate for recycling processor state across runs.
// Instance identity (not type identity) is required because processors
// may capture per-instance configuration, e.g. algorithm X's options.
func algSameInstance(a, b Algorithm) bool {
	if a == nil || b == nil {
		return false
	}
	ta := reflect.TypeOf(a)
	if ta != reflect.TypeOf(b) || !ta.Comparable() {
		return false
	}
	return a == b
}

// nextProcessor picks processor pid's initial state for a fresh run: with
// the same algorithm instance as the previous run, a processor stranded
// by that run (live in procs or stashed in retired) is recycled through
// Resettable; otherwise the algorithm builds a new one.
func (m *Machine) nextProcessor(pid int, sameAlg bool) Processor {
	if sameAlg {
		cand := m.procs[pid]
		if cand == nil {
			cand = m.retired[pid]
		}
		if rp := m.resets[pid]; cand != nil && rp != nil {
			m.retired[pid] = nil
			rp.Reset(pid, m.cfg.N, m.cfg.P)
			return cand
		}
	}
	m.retired[pid] = nil
	return m.newProcessor(pid)
}

// newProcessor builds processor pid's initial state through the
// algorithm and records whether it can be reset in place.
func (m *Machine) newProcessor(pid int) Processor {
	proc := m.alg.NewProcessor(pid, m.cfg.N, m.cfg.P)
	m.resets[pid], _ = proc.(Resettable)
	return proc
}

// packedLen resolves the bit-packed prefix length for a run: the
// ArrayDoneHinter prefix when Config.Packed asks for packing (the cells
// of an array-style Done predicate are exactly the ones that only ever
// hold 0 or 1 in a well-behaved run), zero otherwise.
func (m *Machine) packedLen(size int) int {
	if !m.cfg.Packed {
		return 0
	}
	h, ok := m.alg.(ArrayDoneHinter)
	if !ok {
		return 0
	}
	k := h.DoneCells(m.cfg.N, m.cfg.P)
	if k <= 0 || k > size {
		return 0
	}
	return k
}

// initDoneHint arms the incremental Done counter when the algorithm
// volunteers an array hint. The counter starts from the post-Setup
// memory so Setup writes are accounted.
func (m *Machine) initDoneHint() {
	m.hintLen, m.remaining = 0, 0
	h, ok := m.alg.(ArrayDoneHinter)
	if !ok {
		return
	}
	k := h.DoneCells(m.cfg.N, m.cfg.P)
	if k <= 0 || k > m.mem.Size() {
		return
	}
	m.hintLen = k
	m.remaining = m.mem.zerosIn(0, k)
}

// store commits one word to shared memory, maintaining the incremental
// Done counter for hinted cells. All commit-phase stores go through it.
func (m *Machine) store(addr int, v Word) {
	if addr < m.hintLen {
		old := m.mem.Load(addr)
		if old == 0 && v != 0 {
			m.remaining--
		} else if old != 0 && v == 0 {
			m.remaining++
		}
	}
	m.mem.Store(addr, v)
}

// isDone evaluates the completion predicate: O(1) via the incremental
// counter when hinted, the algorithm's polled Done otherwise.
func (m *Machine) isDone() bool {
	if m.hintLen > 0 {
		return m.remaining == 0
	}
	return m.alg.Done(m.mem.View(), m.cfg.N, m.cfg.P)
}

// Close retires the machine: Reset, Snapshot and RestoreSnapshot refuse
// it afterwards, so a machine its owner has let go (Runner.Close) cannot
// be recycled by mistake. A machine holds nothing but memory, so calling
// Close is optional. Close must not be called concurrently with Step,
// Run, or Reset.
func (m *Machine) Close() { m.closed = true }

// Memory exposes the machine's shared memory, e.g. for inspecting results.
func (m *Machine) Memory() *Memory { return m.mem }

// Metrics returns the accounting collected so far.
func (m *Machine) Metrics() Metrics { return m.metrics }

// Tick returns the current clock value.
func (m *Machine) Tick() int { return m.tick }

// State returns processor pid's liveness.
func (m *Machine) State(pid int) ProcState { return m.ps.states[pid] }

// Run executes ticks until the algorithm reports completion, returning the
// final metrics. On error the metrics collected so far are still returned.
func (m *Machine) Run() (Metrics, error) {
	for {
		done, err := m.Step()
		if err != nil {
			return m.metrics, err
		}
		if done {
			return m.metrics, nil
		}
	}
}

// Step executes one synchronous tick. It returns done=true once the
// algorithm's Done predicate holds (checked before executing a tick, so a
// completed task does no further work).
func (m *Machine) Step() (bool, error) {
	if m.isDone() {
		m.emitRunDone(nil)
		return true, nil
	}
	if m.tick >= m.cfg.MaxTicks {
		return false, m.fail(fmt.Errorf("%w (tick=%d, algorithm=%s, adversary=%s)",
			ErrTickLimit, m.tick, m.alg.Name(), m.adv.Name()))
	}
	before := m.metrics

	// Phase 1 (the attempt phase): every live, scheduled processor
	// executes its cycle against the tick-start memory, in PID order,
	// and publishes the outcome as its intent. Reads observe the
	// pre-tick memory and writes are buffered, so no cycle sees another
	// cycle of the same tick: the synchronous semantics of Section 2.1,
	// under which the adversary below also sees every intent before any
	// write lands.
	m.resolveSchedule()
	m.dropStaleIntents()
	m.attemptRange()
	if e := m.takeCyclePanic(); e != nil {
		// A cycle panicked (naturally or injected); the attempt published
		// no intent. Fail the run with the recovered panic rather than
		// crashing the process or silently dropping the processor.
		return false, m.fail(e)
	}
	// Validate the published cycles in PID order, counting them: alive
	// is the number of processors executing an update cycle this tick.
	alive := 0
	for i, w := range m.ps.alive {
		for ; w != 0; w &= w - 1 {
			pid := i<<6 | bits.TrailingZeros64(w)
			if m.intents[pid] == nil {
				continue
			}
			alive++
			if err := m.validateCycle(m.ctxs[pid]); err != nil {
				return false, m.fail(err)
			}
		}
	}
	if alive == 0 {
		// No processor can complete a cycle; the adversary must restart
		// someone. Give it the chance, then enforce liveness.
		return m.deadTick()
	}

	// Phase 2: the adversary moves. It sees the same immutable pre-tick
	// views the cycles saw.
	dec := m.decide(alive)

	// Phase 3: resolve the adversary's failure list into the per-PID
	// failBuf (one indexed read per processor afterwards) and enforce
	// liveness: at least one alive, scheduled processor must complete
	// its cycle this tick.
	for _, pid := range m.failSet {
		m.failBuf[pid] = NoFailure
	}
	m.failSet = m.failSet[:0]
	survivors := alive
	for _, f := range dec.Failures {
		pid := f.PID
		if f.Point == NoFailure || pid < 0 || pid >= m.cfg.P || m.failBuf[pid] != NoFailure {
			continue
		}
		m.failBuf[pid] = f.Point
		m.failSet = append(m.failSet, pid)
		if m.ps.states[pid] == Alive && m.intents[pid] != nil {
			survivors--
		}
	}
	if survivors == 0 {
		m.recordViolation(ViolationKillAll)
		if m.cfg.Legality == ErrorOnIllegal {
			return false, m.fail(fmt.Errorf("%w at tick %d (adversary=%s)",
				ErrIllegalAdversary, m.tick, m.adv.Name()))
		}
		m.spareOne()
		m.metrics.Vetoes++
	}

	// Phase 4: apply failures and collect commits. An alive processor
	// that did not execute this tick (unscheduled) can still be failed,
	// but its cycle never began: any fail point degrades to "nothing
	// executed" and its stale context must not leak writes.
	m.pending = m.pending[:0]
	for i, w := range m.ps.alive {
		for ; w != 0; w &= w - 1 {
			pid := i<<6 | bits.TrailingZeros64(w)
			ctx := m.ctxs[pid]
			fp := m.failBuf[pid]
			if m.intents[pid] == nil {
				// Unscheduled this tick: only death can happen.
				if fp != NoFailure {
					m.kill(pid)
				}
				continue
			}
			m.pending = append(m.pending, pendingCommit{})
			pc := &m.pending[len(m.pending)-1]
			pc.pid, pc.fail = pid, fp
			switch fp {
			case NoFailure:
				pc.writes = ctx.writeOps()
				pc.stableSet = ctx.stableSet
				pc.stable = ctx.newStable
				pc.halts = m.intents[pid].Halts
				pc.completed = true
				pc.started = true
			case FailBeforeReads:
				// The cycle never began: nothing executed, nothing charged.
			case FailAfterReads:
				pc.started = true
			case FailAfterWrite1:
				pc.started = true
				if ctx.nWrites > 0 {
					pc.writes = ctx.writeOps()[:1]
				}
			default:
				return false, m.fail(fmt.Errorf("pram: adversary %s returned invalid fail point %d for pid %d",
					m.adv.Name(), fp, pid))
			}
			if fp != NoFailure {
				m.kill(pid)
				if pc.started {
					m.metrics.Incomplete++
				}
			}
		}
	}

	// Phase 5: resolve and commit all surviving writes synchronously,
	// in PID order.
	if err := m.commitWrites(); err != nil {
		return false, m.fail(err)
	}
	for i := range m.pending {
		pc := &m.pending[i]
		if !pc.completed {
			continue
		}
		m.metrics.Completed++
		if pc.stableSet {
			m.stables[pc.pid] = pc.stable
		}
		if pc.halts {
			m.setState(pc.pid, Halted)
			m.retire(pc.pid)
		}
	}
	m.emitCycleEvents()

	// Phase 6: restarts take effect for the next tick. Restarted
	// processors know only their PID and their stable action counter.
	m.applyRestarts(dec.Restarts)

	m.tick++
	m.metrics.Ticks = m.tick
	m.emitTick(alive, before)
	m.obsTick(before)
	if m.isDone() {
		m.emitRunDone(nil)
		return true, nil
	}
	if m.allHalted() {
		return false, m.fail(fmt.Errorf("%w (algorithm=%s)", ErrAllHalted, m.alg.Name()))
	}
	return false, nil
}

// decide hands the adversary this tick's view, with the PIDs whose state
// changed since its previous call, and starts a fresh change list.
func (m *Machine) decide(alive int) Decision {
	m.view = View{
		Tick:    m.tick,
		N:       m.cfg.N,
		P:       m.cfg.P,
		Mem:     m.mem.View(),
		States:  StateView{s: &m.ps},
		Intents: m.intents,
		Alive:   alive,
		Changed: m.changed,
		Resync:  m.resync,
	}
	dec := m.adv.Decide(&m.view)
	m.changed = m.changed[:0]
	m.resync = false
	return dec
}

// setState moves pid to state st and notes the change for the next
// Decide.
func (m *Machine) setState(pid int, st ProcState) {
	m.ps.set(pid, st)
	m.changed = append(m.changed, pid)
}

// kill fails alive processor pid in the apply phase.
func (m *Machine) kill(pid int) {
	m.setState(pid, Dead)
	m.retire(pid)
	m.metrics.Failures++
}

// dropStaleIntents clears the intents of the PIDs that left the live set
// since the last Decide, which kept them through the tick they died or
// halted in (EREW's read check reads failed cycles' intents after the
// apply phase); the attempt phase resets only the live PIDs' intents.
func (m *Machine) dropStaleIntents() {
	for _, pid := range m.changed {
		if m.ps.states[pid] != Alive {
			m.intents[pid] = nil
		}
	}
}

// attemptOne executes processor pid's update cycle against the tick-start
// memory and publishes its intent. Writes and stable updates are
// buffered, so nothing it does is visible to the other cycles of the
// tick; private-state mutation is harmless because any killed processor
// loses private state.
func (m *Machine) attemptOne(pid int) {
	ctx := m.ctxs[pid]
	ctx.reset(m.tick, m.stables[pid])
	status := m.procs[pid].Cycle(ctx)
	in := &m.intentsB[pid]
	in.Reads = ctx.readAddrs() // aliases Ctx storage; valid through the tick
	in.Writes = ctx.writeOps()
	in.Halts = status == Halt
	in.Snapshot = ctx.snapshots > 0
	m.intents[pid] = in
}

// runnable reports whether pid is scheduled this tick (m.sched is the
// schedule resolved at the top of the tick; nil means everyone runs).
func (m *Machine) runnable(pid int) bool {
	return m.sched == nil || m.sched[pid]
}

// fail routes a terminal error through the run-level sink event exactly
// once.
func (m *Machine) fail(err error) error {
	m.emitRunDone(err)
	return err
}

func (m *Machine) emitRunDone(err error) {
	if m.ended {
		return
	}
	m.ended = true
	m.obsRunDone(err)
	if m.sink != nil {
		m.sink.RunDone(RunEvent{Metrics: m.metrics, Err: err})
	}
}

// emitCycleEvents reports every attempted cycle's outcome, in PID order,
// after the tick's writes have committed.
func (m *Machine) emitCycleEvents() {
	if m.sink == nil {
		return
	}
	for i := range m.pending {
		pc := &m.pending[i]
		arrayWrites := 0
		for _, w := range pc.writes { // exactly the committed prefix
			if w.Addr < m.cfg.N {
				arrayWrites++
			}
		}
		m.sink.CycleDone(CycleEvent{
			Tick:        m.tick,
			PID:         pc.pid,
			Fail:        pc.fail,
			Started:     pc.started,
			Completed:   pc.completed,
			Writes:      len(pc.writes),
			ArrayWrites: arrayWrites,
			Halted:      pc.completed && pc.halts,
		})
	}
}

// resolveSchedule fills m.sched with this tick's runnable set: the
// configured scheduler, unless it would idle every live processor, in
// which case everyone runs. With no scheduler m.sched stays nil and
// runnable() is constant-true. The scheduler function is only ever called
// here, on the stepping goroutine.
func (m *Machine) resolveSchedule() {
	if m.cfg.Scheduler == nil {
		return
	}
	any := false
	for pid := 0; pid < m.cfg.P; pid++ {
		m.sched[pid] = m.cfg.Scheduler(m.tick, pid)
		if m.sched[pid] && m.ps.states[pid] == Alive {
			any = true
		}
	}
	if !any {
		for pid := range m.sched {
			m.sched[pid] = true
		}
	}
}

// emitTick delivers the per-tick profile to the sink.
func (m *Machine) emitTick(alive int, before Metrics) {
	if m.sink == nil {
		return
	}
	m.sink.TickDone(TickEvent{
		Tick:      m.tick - 1,
		Alive:     alive,
		Completed: int(m.metrics.Completed - before.Completed),
		Failures:  int(m.metrics.Failures - before.Failures),
		Restarts:  int(m.metrics.Restarts - before.Restarts),
	})
}

// deadTick handles a tick with zero alive processors: the adversary is
// consulted (it sees no intents) and must restart someone; under VetoSpare
// the machine force-restarts the lowest-PID dead processor if it does not.
func (m *Machine) deadTick() (bool, error) {
	before := m.metrics
	dec := m.decide(0)
	restarted := false
	for _, pid := range dec.Restarts {
		if pid >= 0 && pid < m.cfg.P && m.ps.states[pid] == Dead {
			restarted = true
		}
	}
	if restarted {
		m.applyRestarts(dec.Restarts)
	} else {
		m.recordViolation(ViolationNoRestart)
		if m.cfg.Legality == ErrorOnIllegal {
			return false, m.fail(fmt.Errorf("%w: no alive processors and no restart at tick %d",
				ErrIllegalAdversary, m.tick))
		}
		if pid := nextSet(m.ps.dead, 0); pid >= 0 {
			m.metrics.Vetoes++
			m.restart(pid)
		}
	}
	m.tick++
	m.metrics.Ticks = m.tick
	m.emitTick(0, before)
	m.obsTick(before)
	if m.allHalted() {
		return false, m.fail(fmt.Errorf("%w (algorithm=%s)", ErrAllHalted, m.alg.Name()))
	}
	return false, nil
}

func (m *Machine) applyRestarts(restarts []int) {
	for _, pid := range restarts {
		if pid < 0 || pid >= m.cfg.P || m.ps.states[pid] != Dead {
			continue
		}
		m.restart(pid)
	}
}

// restart revives dead processor pid for the next tick.
func (m *Machine) restart(pid int) {
	m.setState(pid, Alive)
	m.procs[pid] = m.reviveProcessor(pid)
	m.metrics.Restarts++
}

// retire drops processor pid's private state (it died or halted),
// stashing it for recycling when it supports in-place reinitialization.
func (m *Machine) retire(pid int) {
	if m.resets[pid] != nil {
		m.retired[pid] = m.procs[pid]
	}
	m.procs[pid] = nil
}

// reviveProcessor returns the restarted incarnation of processor pid:
// the retired one reset in place when possible (bit-identical to a fresh
// one by the Resettable contract — a restarted processor knows only its
// PID and machine parameters), a fresh NewProcessor otherwise.
func (m *Machine) reviveProcessor(pid int) Processor {
	if cand := m.retired[pid]; cand != nil {
		m.retired[pid] = nil
		m.resets[pid].Reset(pid, m.cfg.N, m.cfg.P)
		return cand
	}
	return m.newProcessor(pid)
}

// spareOne clears the failure of the lowest-PID targeted alive processor
// that is actually executing this tick, so that at least one update cycle
// completes. It adjusts only the machine's failBuf resolution, never the
// adversary's own decision.
func (m *Machine) spareOne() {
	for i, w := range m.ps.alive {
		for ; w != 0; w &= w - 1 {
			pid := i<<6 | bits.TrailingZeros64(w)
			if m.intents[pid] != nil && m.failBuf[pid] != NoFailure {
				m.failBuf[pid] = NoFailure
				return
			}
		}
	}
}

func (m *Machine) allHalted() bool { return m.ps.nHalted == m.cfg.P }

func (m *Machine) validateCycle(ctx *Ctx) error {
	if ctx.reads > m.metrics.MaxReads {
		m.metrics.MaxReads = ctx.reads
	}
	if ctx.nWrites > m.metrics.MaxWrites {
		m.metrics.MaxWrites = ctx.nWrites
	}
	m.metrics.Snapshots += int64(ctx.snapshots)
	if ctx.snapshots > 0 && !m.cfg.AllowSnapshot {
		return fmt.Errorf("%w (algorithm=%s, pid=%d)", ErrSnapshotDisallowed, m.alg.Name(), ctx.pid)
	}
	if ctx.snapshots == 0 && (ctx.reads > m.readBudget || ctx.nWrites > MaxWritesPerCycle) {
		return fmt.Errorf("%w (algorithm=%s, pid=%d, reads=%d, writes=%d)",
			ErrCycleLimit, m.alg.Name(), ctx.pid, ctx.reads, ctx.nWrites)
	}
	return nil
}

// taggedWrite is one committed write together with its writer, used for
// synchronous conflict resolution.
type taggedWrite struct {
	addr int
	pid  int
	val  Word
}

// cellSlot is one slot of commitWrites' cell table: writeBuf[idx] is
// the first writer of the slot's cell when gen is the current commit's.
type cellSlot struct {
	gen uint32
	idx int32
}

// sizeCommit readies writeBuf and the cell table for ticks of up to
// writes writes, keeping the table at most half full. It allocates only
// when they are smaller.
func (m *Machine) sizeCommit(writes int) {
	if cap(m.writeBuf) < writes {
		m.writeBuf = make([]taggedWrite, 0, writes)
	}
	m.cellBits = uint(bits.Len(uint(2*writes - 1)))
	if n := 1 << m.cellBits; cap(m.cells) < n {
		// A fresh table is all zero: gen 0 marks a slot that was never
		// used, so cellGen never takes that value.
		m.cells = make([]cellSlot, n)
	} else {
		m.cells = m.cells[:n]
	}
}

// commitWrites applies all pending writes of the tick under the configured
// policy. Within a tick all writes are simultaneous, so conflict
// resolution considers them together. One pass over the writes, which
// come in PID order and each PID's in program order, finds each cell's
// first writer (the one every policy keeps) through the cell table and
// the lowest cell with a violation: under COMMON a later writer whose
// value differs from the first's, under CREW/EREW any second writer.
// It then stores the first writers of every cell below that one and
// reports it, so memory and error match resolving the cells one by one
// in address order; without a violation every first writer lands.
func (m *Machine) commitWrites() error {
	n := 0
	for i := range m.pending {
		n += len(m.pending[i].writes)
	}
	if n == 0 {
		return nil
	}
	switch m.cfg.Policy {
	case Common, Arbitrary, Priority, CREW:
	case EREW:
		if err := m.checkExclusiveReads(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("pram: invalid write policy %d", m.cfg.Policy)
	}
	if 2*n > len(m.cells) {
		m.sizeCommit(n)
	}
	if m.cellGen++; m.cellGen == 0 {
		clear(m.cells[:cap(m.cells)])
		m.cellGen = 1
	}
	common := m.cfg.Policy == Common
	exclusive := m.cfg.Policy == CREW || m.cfg.Policy == EREW
	cells, gen, shift := m.cells, m.cellGen, 64-m.cellBits
	mask := len(cells) - 1
	wb := m.writeBuf[:0]
	// bad is the writeBuf index of the lowest violating cell's first
	// writer (-1 for none) and badAt that cell; other is the write that
	// conflicts with it, the first one seen.
	bad, badAt, other := -1, math.MaxInt, taggedWrite{}
	for i := range m.pending {
		pc := &m.pending[i]
		for _, w := range pc.writes {
			h := int(uint64(w.Addr) * 0x9E3779B97F4A7C15 >> shift)
			for {
				s := &cells[h]
				if s.gen != gen {
					*s = cellSlot{gen: gen, idx: int32(len(wb))}
					wb = append(wb, taggedWrite{addr: w.Addr, pid: pc.pid, val: w.Val})
					break
				}
				if first := &wb[s.idx]; first.addr == w.Addr {
					if w.Addr < badAt && (exclusive || common && w.Val != first.val) {
						bad, badAt = int(s.idx), w.Addr
						other = taggedWrite{addr: w.Addr, pid: pc.pid, val: w.Val}
					}
					break
				}
				h = (h + 1) & mask
			}
		}
	}
	m.writeBuf = wb
	for _, w := range wb {
		if w.addr < badAt {
			m.store(w.addr, w.val)
		}
	}
	if bad < 0 {
		return nil
	}
	if first := wb[bad]; common {
		return fmt.Errorf("%w: cell %d gets %d (pid %d) and %d (pid %d) at tick %d",
			ErrCommonViolation, badAt, first.val, first.pid, other.val, other.pid, m.tick)
	}
	return fmt.Errorf("%w: concurrent write of cell %d at tick %d",
		ErrExclusiveViolation, badAt, m.tick)
}

// checkExclusiveReads verifies the EREW no-concurrent-read rule for the
// cycles that executed at least one instruction this tick.
func (m *Machine) checkExclusiveReads() error {
	m.readBuf = m.readBuf[:0]
	for _, pc := range m.pending {
		if !pc.started {
			continue
		}
		m.readBuf = append(m.readBuf, m.intents[pc.pid].Reads...)
	}
	slices.Sort(m.readBuf)
	for i := 1; i < len(m.readBuf); i++ {
		if m.readBuf[i] == m.readBuf[i-1] {
			return fmt.Errorf("%w: concurrent read of cell %d at tick %d",
				ErrExclusiveViolation, m.readBuf[i], m.tick)
		}
	}
	return nil
}
