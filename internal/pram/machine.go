package pram

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"

	"repro/internal/faultinject"
)

// Config parameterizes a machine, which is always the paper's COMMON
// CRCW PRAM (Section 2.1): concurrent writers of a cell must agree, or
// the run fails with ErrCommonViolation. When an adversary would fail
// every executing processor, the machine spares one and counts the veto,
// so at least one update cycle completes (condition 2(i)).
type Config struct {
	// N is the input size; P the number of processors. Both must be
	// positive.
	N, P int
	// AllowSnapshot permits the unit-cost whole-memory read instruction
	// assumed by Theorem 3.2. Ordinary runs leave it false.
	AllowSnapshot bool
	// MaxTicks bounds the run; zero means DefaultMaxTicks. Exceeding it
	// returns ErrTickLimit (it indicates a non-terminating run).
	MaxTicks int
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
}

// DefaultMaxTicks bounds runs whose Config does not set MaxTicks.
const DefaultMaxTicks = 1 << 26

// Sentinel errors returned by Run.
var (
	// ErrTickLimit reports that the run did not terminate within the
	// configured tick budget.
	ErrTickLimit = errors.New("pram: tick limit exceeded")
	// ErrAllHalted reports that every processor exited but the
	// algorithm's Done predicate is still false (an algorithm bug).
	ErrAllHalted = errors.New("pram: all processors halted before completion")
	// ErrCycleLimit reports an update cycle exceeding the read/write
	// bounds of Section 2.1.
	ErrCycleLimit = errors.New("pram: update cycle exceeded read/write bounds")
	// ErrCommonViolation reports concurrent writers disagreeing on a
	// COMMON CRCW machine.
	ErrCommonViolation = errors.New("pram: COMMON write conflict with differing values")
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

	mem   *Memory
	ps    procSet
	slots []slot

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
	// fresh is set while every slot still holds the incarnation Reset
	// built for it: Reset sets it, and the first tick and
	// RestoreSnapshot clear it. A restore into a fresh machine keeps
	// those incarnations instead of building each live one again.
	fresh bool

	// per-tick scratch, reused across ticks: intents is the adversary's
	// View.Intents, a live PID's entry pointing at its slot's intent, and
	// ran lists the PIDs that attempted a cycle this tick, in PID order.
	intents []*Intent
	ran     []int
	view    View
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

	// failSet lists the PIDs whose slot holds a fail point, so clearing
	// them costs the tick's failures, not P.
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

// slot is one PID's record, the processor of Section 2.1: the private
// state a failure wipes (the processor, its cycle context and intent),
// the stable action counter that survives it, and this tick's fail
// point. A dead or halted PID keeps its processor here, untouched until
// revive resets or replaces it. The fields that loops over all live
// PIDs read come first, so that the quiet-window loops, which read only
// proc and stable, touch about one cache line per PID, not two.
type slot struct {
	proc Processor
	// reset is proc as a Resettable, nil when it is not one; revive
	// resolves it once per built processor, so kills and restarts make
	// no type assertions.
	reset  Resettable
	stable Word
	fail   FailPoint
	intent Intent
	ctx    Ctx
}

// committed returns the prefix of the cycle's buffered writes that lands
// under the slot's fail point: every write of a completed cycle, the
// first of one failed after it, none otherwise.
func (s *slot) committed() []WriteOp {
	switch s.fail {
	case NoFailure:
		return s.ctx.writeOps()
	case FailAfterWrite1:
		if s.ctx.nWrites > 0 {
			return s.ctx.writeOps()[:1]
		}
	}
	return nil
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
	if cfg.MaxTicks == 0 {
		cfg.MaxTicks = DefaultMaxTicks
	}
	sameAlg := algSameInstance(m.alg, alg)
	m.cfg, m.alg, m.adv, m.sink = cfg, alg, adv, cfg.Sink
	m.readBudget = MaxReadsPerCycle
	if b, ok := alg.(ReadBudgeter); ok {
		m.readBudget = b.ReadBudget()
	}

	p := cfg.P
	m.ps.reset(p)
	m.slots = grow(m.slots, p)
	if !sameAlg {
		// Stale processors beyond the previous run's P could otherwise
		// resurface in a later grow and be recycled for the wrong
		// algorithm; instance-gating is only sound if every kept
		// processor belongs to the current instance.
		all := m.slots[:cap(m.slots)]
		for i := range all {
			all[i].proc, all[i].reset = nil, nil
		}
	}
	m.intents = grow(m.intents, p)
	if cap(m.changed) < 2*p {
		// A tick kills or halts each live PID at most once and restarts
		// each dead one at most once.
		m.changed = make([]int, 0, 2*p)
	}
	if cap(m.failSet) < p {
		m.failSet = make([]int, 0, p)
	}
	if cap(m.ran) < p {
		m.ran = make([]int, 0, p)
	}
	m.sizeCommit(p * MaxWritesPerCycle)

	size := alg.MemorySize(cfg.N, p)
	if m.mem == nil {
		m.mem = &Memory{}
	}
	m.mem.ResetPacked(size, m.packedLen(size))
	alg.Setup(m.mem, cfg.N, p)

	view := m.mem.View()
	for pid := range m.slots {
		s := &m.slots[pid]
		s.stable = 0
		m.intents[pid] = nil
		m.revive(pid)
		s.ctx.pid, s.ctx.n, s.ctx.p, s.ctx.mem = pid, cfg.N, p, view
	}
	m.tick = 0
	m.ended = false
	m.fresh = true
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
	for i := range m.slots {
		m.slots[i].fail = NoFailure
	}
	m.failSet = m.failSet[:0]
	m.changed = m.changed[:0]
	m.resync = true
}

// grow returns s with length n, reusing capacity when possible. Elements
// are not cleared: Reset overwrites every field it reads, and the kept
// processors are cleared explicitly on algorithm change.
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

// revive gives pid a fresh incarnation, which knows only its PID and
// the machine parameters: the kept processor reset in place when it is
// Resettable (bit-identical to a new one by that contract), a new one
// from the algorithm otherwise.
func (m *Machine) revive(pid int) {
	s := &m.slots[pid]
	if s.reset != nil {
		s.reset.Reset(pid, m.cfg.N, m.cfg.P)
		return
	}
	s.proc = m.alg.NewProcessor(pid, m.cfg.N, m.cfg.P)
	s.reset, _ = s.proc.(Resettable)
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
	m.fresh = false
	if m.isDone() {
		m.emitRunDone(nil)
		return true, nil
	}
	if m.tick >= m.cfg.MaxTicks {
		return false, m.fail(fmt.Errorf("%w (tick=%d, algorithm=%s, adversary=%s)",
			ErrTickLimit, m.tick, m.alg.Name(), m.adv.Name()))
	}
	before := m.metrics

	// Phase 1 (the attempt phase): every live processor executes its
	// cycle against the tick-start memory, in PID order, and publishes
	// the outcome as its intent. Reads observe the pre-tick memory and
	// writes are buffered, so no cycle sees another cycle of the same
	// tick: the synchronous semantics of Section 2.1, under which the
	// adversary below also sees every intent before any write lands.
	m.attemptRange()
	if e := m.takeCyclePanic(); e != nil {
		// A cycle panicked (naturally or injected); the attempt published
		// no intent. Fail the run with the recovered panic rather than
		// crashing the process or silently dropping the processor.
		return false, m.fail(e)
	}
	// Validate the published cycles, one per live processor, in PID order.
	alive := m.ps.nAlive
	for i, w := range m.ps.alive {
		for ; w != 0; w &= w - 1 {
			if err := m.validateCycle(&m.slots[i<<6|bits.TrailingZeros64(w)].ctx); err != nil {
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
	dec := m.decide()

	// Phase 3: resolve the adversary's failure list into the slots' fail
	// points (one indexed read per processor afterwards) and enforce
	// liveness: at least one alive processor must complete its cycle
	// this tick.
	for _, pid := range m.failSet {
		m.slots[pid].fail = NoFailure
	}
	m.failSet = m.failSet[:0]
	survivors := alive
	for _, f := range dec.Failures {
		pid := f.PID
		if f.Point == NoFailure || pid < 0 || pid >= m.cfg.P || m.slots[pid].fail != NoFailure {
			continue
		}
		m.slots[pid].fail = f.Point
		m.failSet = append(m.failSet, pid)
		if m.ps.states[pid] == Alive {
			survivors--
		}
	}
	if survivors == 0 {
		m.recordViolation(ViolationKillAll)
		m.spareOne()
		m.metrics.Vetoes++
	}

	// Phase 4: apply failures, listing the tick's PIDs in ran.
	m.ran = m.ran[:0]
	for i, w := range m.ps.alive {
		for ; w != 0; w &= w - 1 {
			pid := i<<6 | bits.TrailingZeros64(w)
			m.ran = append(m.ran, pid)
			switch fp := m.slots[pid].fail; fp {
			case NoFailure:
				continue
			case FailBeforeReads:
				// The cycle never began: nothing executed, nothing charged.
			case FailAfterReads, FailAfterWrite1:
				m.metrics.Incomplete++
			default:
				return false, m.fail(fmt.Errorf("pram: adversary %s returned invalid fail point %d for pid %d",
					m.adv.Name(), fp, pid))
			}
			m.kill(pid)
		}
	}

	// Phase 5: resolve and commit all surviving writes synchronously,
	// in PID order.
	if err := m.commitWrites(); err != nil {
		return false, m.fail(err)
	}
	for _, pid := range m.ran {
		s := &m.slots[pid]
		if s.fail != NoFailure {
			continue
		}
		m.metrics.Completed++
		if s.ctx.stableSet {
			s.stable = s.ctx.newStable
		}
		if s.intent.Halts {
			m.setState(pid, Halted)
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
// changed since its previous call, and starts a fresh change list. Every
// live processor executes a cycle, so the view's Alive is the live count.
func (m *Machine) decide() Decision {
	m.view = View{
		Tick:    m.tick,
		N:       m.cfg.N,
		P:       m.cfg.P,
		Mem:     m.mem.View(),
		States:  StateView{s: &m.ps},
		Intents: m.intents,
		Alive:   m.ps.nAlive,
		Changed: m.changed,
		Resync:  m.resync,
	}
	dec := m.adv.Decide(&m.view)
	m.changed = m.changed[:0]
	m.resync = false
	return dec
}

// setState moves pid to state st and notes the change for the next
// Decide. A PID that leaves the live set drops its intent, so the
// adversary's Intents hold exactly the live PIDs' cycles.
func (m *Machine) setState(pid int, st ProcState) {
	m.ps.set(pid, st)
	m.changed = append(m.changed, pid)
	if st != Alive {
		m.intents[pid] = nil
	}
}

// kill fails alive processor pid in the apply phase.
func (m *Machine) kill(pid int) {
	m.setState(pid, Dead)
	m.metrics.Failures++
}

// attemptOne executes processor pid's update cycle against the tick-start
// memory and publishes its intent. Writes and stable updates are
// buffered, so nothing it does is visible to the other cycles of the
// tick; private-state mutation is harmless because any killed processor
// loses private state.
func (m *Machine) attemptOne(pid int) {
	s := &m.slots[pid]
	s.ctx.reset(m.tick, s.stable)
	status := s.proc.Cycle(&s.ctx)
	s.intent = Intent{
		Reads:    s.ctx.readAddrs(), // aliases Ctx storage; valid through the tick
		Writes:   s.ctx.writeOps(),
		Halts:    status == Halt,
		Snapshot: s.ctx.snapshots > 0,
	}
	m.intents[pid] = &s.intent
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
	for _, pid := range m.ran {
		s := &m.slots[pid]
		writes := s.committed()
		arrayWrites := 0
		for _, w := range writes {
			if w.Addr < m.cfg.N {
				arrayWrites++
			}
		}
		completed := s.fail == NoFailure
		m.sink.CycleDone(CycleEvent{
			Tick:        m.tick,
			PID:         pid,
			Fail:        s.fail,
			Started:     s.fail != FailBeforeReads,
			Completed:   completed,
			Writes:      len(writes),
			ArrayWrites: arrayWrites,
			Halted:      completed && s.intent.Halts,
		})
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
// consulted (it sees no intents) and must restart someone; the machine
// force-restarts the lowest-PID dead processor if it does not.
func (m *Machine) deadTick() (bool, error) {
	before := m.metrics
	dec := m.decide()
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
	m.revive(pid)
	m.metrics.Restarts++
}

// spareOne clears the failure of the lowest-PID targeted alive processor,
// so that at least one update cycle completes. It adjusts only the
// machine's resolution in the slots, never the adversary's own decision.
func (m *Machine) spareOne() {
	for i, w := range m.ps.alive {
		for ; w != 0; w &= w - 1 {
			pid := i<<6 | bits.TrailingZeros64(w)
			if s := &m.slots[pid]; s.fail != NoFailure {
				s.fail = NoFailure
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

// commitWrites applies all pending writes of the tick under the COMMON
// rule. Within a tick all writes are simultaneous, so conflict
// resolution considers them together. One pass over the writes, which
// come in PID order and each PID's in program order, finds each cell's
// first writer through the cell table and the lowest cell with a
// violation: a later writer whose value differs from the first's. It
// then stores the first writers of every cell below that one and
// reports it, so memory and error match resolving the cells one by one
// in address order; without a violation every first writer lands.
func (m *Machine) commitWrites() error {
	n := 0
	for _, pid := range m.ran {
		n += len(m.slots[pid].committed())
	}
	if n == 0 {
		return nil
	}
	if 2*n > len(m.cells) {
		m.sizeCommit(n)
	}
	if m.cellGen++; m.cellGen == 0 {
		clear(m.cells[:cap(m.cells)])
		m.cellGen = 1
	}
	cells, gen, shift := m.cells, m.cellGen, 64-m.cellBits
	mask := len(cells) - 1
	wb := m.writeBuf[:0]
	// bad is the writeBuf index of the lowest violating cell's first
	// writer (-1 for none) and badAt that cell; other is the write that
	// conflicts with it, the first one seen.
	bad, badAt, other := -1, math.MaxInt, taggedWrite{}
	for _, pid := range m.ran {
		for _, w := range m.slots[pid].committed() {
			h := int(uint64(w.Addr) * 0x9E3779B97F4A7C15 >> shift)
			for {
				s := &cells[h]
				if s.gen != gen {
					*s = cellSlot{gen: gen, idx: int32(len(wb))}
					wb = append(wb, taggedWrite{addr: w.Addr, pid: pid, val: w.Val})
					break
				}
				if first := &wb[s.idx]; first.addr == w.Addr {
					if w.Addr < badAt && w.Val != first.val {
						bad, badAt = int(s.idx), w.Addr
						other = taggedWrite{addr: w.Addr, pid: pid, val: w.Val}
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
	first := wb[bad]
	return fmt.Errorf("%w: cell %d gets %d (pid %d) and %d (pid %d) at tick %d",
		ErrCommonViolation, badAt, first.val, first.pid, other.val, other.pid, m.tick)
}
