// Package core implements the paper's main result (Theorem 4.1): executing
// an arbitrary N-processor PRAM program on a restartable fail-stop
// P-processor CRCW PRAM, via the iterated Write-All paradigm of [KPS 90]
// and [Shv 89].
//
// Every simulated synchronous step runs as two Write-All instances over
// the N simulated processors:
//
//   - an EXECUTE phase, in which visiting element i means running
//     simulated processor i's instruction against the step's consistent
//     pre-step memory and recording its (at most one) write in a scratch
//     cell, and
//   - a COMMIT phase, in which visiting element i means applying the
//     recorded write to the simulated memory.
//
// Re-execution by several real processors is idempotent: reads come from
// the unmodified pre-step memory and all writers of a cell agree (the
// simulated programs must be COMMON- or exclusive-write, like the PRAM
// being simulated). Instead of clearing the progress structures between
// the 2*tau phases, every progress value is stamped with its phase number,
// so one monotone structure serves the whole computation.
//
// The Write-All engine inside each phase is the paper's algorithm X
// (phase-stamped); its descent, leaf protocol and termination behaviour -
// and therefore the completed-work and overhead-ratio bounds exercised by
// experiments E9-E11 - carry over from package writeall.
package core

import (
	"fmt"

	"repro/internal/pram"
	"repro/internal/writeall"
)

// Program is an N-processor synchronous PRAM program to be executed
// robustly. Programs must be deterministic, and concurrent writes within a
// simulated step must agree (COMMON) or not occur (EREW/CREW); each
// simulated processor writes at most one cell per step.
type Program interface {
	// Name identifies the program in metrics and tables.
	Name() string
	// Processors returns N, the number of simulated processors.
	Processors() int
	// MemSize returns the number of simulated shared-memory cells.
	MemSize() int
	// Init stores the program's initial simulated memory (memory is
	// zeroed beforehand).
	Init(store func(addr int, v pram.Word))
	// Steps returns tau, the number of synchronous steps.
	Steps() int
	// StepReads returns the largest number of simulated reads a single
	// Step call performs; the executor widens its update-cycle budget by
	// this fixed constant.
	StepReads() int
	// Step runs simulated processor i's instruction for step t (0-based)
	// using read for simulated loads; it may call write at most once.
	Step(t, i int, read func(addr int) pram.Word, write func(addr int, val pram.Word))
}

// Engine selects the Write-All engine driving each phase.
type Engine int

const (
	// EngineVX interleaves phase-stamped V and X (the paper's Theorem
	// 4.9 construction): V provides the work-optimal bound of Corollary
	// 4.12, X guarantees termination. This is the default.
	EngineVX Engine = iota + 1
	// EngineX runs phase-stamped X alone - always terminating but not
	// work-optimal at small P (its per-element cost grows with log P);
	// kept for the engine ablation in experiment E11.
	EngineX
)

// String implements fmt.Stringer for Engine.
func (e Engine) String() string {
	switch e {
	case EngineVX:
		return "V+X"
	case EngineX:
		return "X"
	default:
		return "invalid"
	}
}

// Executor is a pram.Algorithm that runs a Program on the fail-stop
// machine. Any machine whose Config.N is the program's processor count
// and whose P is at most that runs it, pooled Runners included;
// NewMachine builds one from the program. A leaf cycle reads at most six
// of the executor's own cells (phase, position, progress, scratch)
// besides the program's own, so the executor declares a read bound of
// 6 + StepReads through pram.ReadBudgeter; it writes at most 2 cells,
// like a plain update cycle. Its processors are pram.Resettable: a
// restarted processor knows only its PID (Section 2.1), so the machine
// resets the dead incarnation in place instead of building a new one,
// and a pram.Runner handed the same Executor again recycles them across
// runs.
type Executor struct {
	prog   Program
	engine Engine
}

// NewExecutor returns an executor for prog using the default EngineVX.
func NewExecutor(prog Program) *Executor {
	return NewExecutorWithEngine(prog, EngineVX)
}

// NewExecutorWithEngine returns an executor for prog with an explicit
// Write-All engine.
func NewExecutorWithEngine(prog Program, engine Engine) *Executor {
	return &Executor{prog: prog, engine: engine}
}

// NewMachine builds a fail-stop machine that executes prog on p real
// processors under adv with the default EngineVX. The machine's N is the
// simulated processor count (each simulated step is one Write-All instance
// of that size).
func NewMachine(prog Program, p int, adv pram.Adversary, cfg pram.Config) (*pram.Machine, error) {
	return NewMachineWithEngine(prog, p, adv, cfg, EngineVX)
}

// NewMachineWithEngine is NewMachine with an explicit Write-All engine.
func NewMachineWithEngine(prog Program, p int, adv pram.Adversary, cfg pram.Config, engine Engine) (*pram.Machine, error) {
	cfg, err := machineConfig(prog, p, cfg)
	if err != nil {
		return nil, err
	}
	return pram.New(cfg, NewExecutorWithEngine(prog, engine), adv)
}

// machineConfig completes cfg for executing prog on p real processors:
// the machine's N is the simulated processor count.
func machineConfig(prog Program, p int, cfg pram.Config) (pram.Config, error) {
	if prog.Processors() < 1 {
		return cfg, fmt.Errorf("core: program %q has no processors", prog.Name())
	}
	if p > prog.Processors() {
		return cfg, fmt.Errorf("core: P = %d exceeds simulated N = %d (the paper requires P <= N)",
			p, prog.Processors())
	}
	cfg.N, cfg.P = prog.Processors(), p
	return cfg, nil
}

// phaseCell is the address of the phase counter Phi, fixed so that Done
// reads it without building a layout.
const phaseCell = 0

// layout is the executor's shared-memory map.
type layout struct {
	n, p    int
	phase   int // the phase counter Phi cell
	start   int // the tick at which the current phase began (V's clock anchor)
	simBase int // simulated memory [simBase, simBase+msim)
	scrBase int // 2 scratch cells per simulated processor
	tree    writeall.TreeLayout

	// V engine: block progress tree over vBlocks leaf blocks of vBS
	// elements (vRealBlocks of them non-padding), rooted at vBase.
	vBase       int
	vBlocks     int
	vBS         int
	vLb         int
	vRealBlocks int
}

func newLayout(n, p, msim int) layout {
	l := layout{n: n, p: p}
	l.phase = phaseCell
	l.start = 1
	l.simBase = 2
	l.scrBase = l.simBase + msim
	l.tree = writeall.NewTreeLayout(n, p, l.scrBase+2*n)
	l.vBase = l.tree.Base + l.tree.Size()
	l.vBS = max(1, writeall.Log2(writeall.NextPow2(n)))
	l.vRealBlocks = (n + l.vBS - 1) / l.vBS
	l.vBlocks = writeall.NextPow2(l.vRealBlocks)
	l.vLb = writeall.Log2(l.vBlocks)
	return l
}

// vtree returns the address of V's block-tree cell b[v], v in
// [1, 2*vBlocks).
func (l *layout) vtree(v int) int { return l.vBase + v - 1 }

// scrA returns the address of simulated processor i's scratch
// address+stamp cell, encoded as (t+1)<<32 | (addr+1) with addr+1 == 0
// meaning "no write this step".
func (l *layout) scrA(i int) int { return l.scrBase + 2*i }

// scrV returns the address of simulated processor i's scratch value cell.
func (l *layout) scrV(i int) int { return l.scrBase + 2*i + 1 }

// fullyPadded reports whether heap node v covers only padding elements
// (>= N), which the executor treats as permanently done.
func (l *layout) fullyPadded(v int) bool {
	leftmost := v
	for !l.tree.IsLeaf(leftmost) {
		leftmost <<= 1
	}
	return l.tree.Element(leftmost) >= l.n
}

// Name implements pram.Algorithm.
func (e *Executor) Name() string { return "executor(" + e.prog.Name() + ")" }

// ReadBudget implements pram.ReadBudgeter.
func (e *Executor) ReadBudget() int { return 6 + e.prog.StepReads() }

// MemorySize implements pram.Algorithm.
func (e *Executor) MemorySize(n, p int) int {
	l := newLayout(n, p, e.prog.MemSize())
	return l.vtree(2*l.vBlocks-1) + 1
}

// Setup implements pram.Algorithm.
func (e *Executor) Setup(mem *pram.Memory, n, p int) {
	lay := newLayout(n, p, e.prog.MemSize())
	mem.Store(lay.phase, 1)
	e.prog.Init(func(addr int, v pram.Word) {
		mem.Store(lay.simBase+addr, v)
	})
}

// NewProcessor implements pram.Algorithm.
func (e *Executor) NewProcessor(pid, n, p int) pram.Processor {
	lay := newLayout(n, p, e.prog.MemSize())
	x := &execProc{pid: pid, prog: e.prog, lay: lay}
	x.port.bind()
	if e.engine == EngineX {
		return x
	}
	c := &execCombinedProc{v: execVProc{pid: pid, prog: e.prog, lay: lay}, x: x}
	c.v.port.bind()
	return c
}

// simPort hands Program.Step its read and write for one simulated
// instruction: read loads simulated memory through the current cycle's
// Ctx, write captures the instruction's one write. The two funcs are
// bound to the port once, when its processor is built, so a leaf visit
// allocates no closures; a port must therefore never be copied or
// overwritten after bind.
type simPort struct {
	ctx   *pram.Ctx
	base  int // simulated address 0
	addr  int // the captured write's address; -1 for none
	val   pram.Word
	read  func(addr int) pram.Word
	write func(addr int, val pram.Word)
}

func (s *simPort) bind() {
	s.read = func(addr int) pram.Word { return s.ctx.Read(s.base + addr) }
	s.write = func(addr int, val pram.Word) { s.addr, s.val = addr, val }
}

// step runs simulated processor i's instruction for step t against
// ctx and returns its write (addr -1 for none).
func (s *simPort) step(prog Program, ctx *pram.Ctx, base, t, i int) (addr int, val pram.Word) {
	s.ctx, s.base, s.addr, s.val = ctx, base, -1, 0
	prog.Step(t, i, s.read, s.write)
	return s.addr, s.val
}

// execCombinedProc is the Theorem 4.9 interleaving inside the executor:
// the V engine acts on even ticks, the X engine on odd ticks.
type execCombinedProc struct {
	v execVProc
	x *execProc
}

// Reset implements pram.Resettable: the X side keeps its layout when
// (n, p) match, and the V side takes it and forgets its iteration.
func (c *execCombinedProc) Reset(pid, n, p int) {
	c.x.Reset(pid, n, p)
	c.v.pid, c.v.lay = pid, c.x.lay
	c.v.phase, c.v.joined, c.v.pos, c.v.target, c.v.block = 0, false, 0, 0, 0
}

// Cycle implements pram.Processor.
func (c *execCombinedProc) Cycle(ctx *pram.Ctx) pram.Status {
	if ctx.Tick()%2 == 0 {
		return c.v.cycle(ctx, 2)
	}
	return c.x.Cycle(ctx)
}

// SnapshotState implements pram.Snapshotter: only the V side carries
// private state (the X side keeps everything in shared memory).
func (c *execCombinedProc) SnapshotState() []pram.Word { return c.v.SnapshotState() }

// RestoreState implements pram.Snapshotter.
func (c *execCombinedProc) RestoreState(state []pram.Word) error {
	return c.v.RestoreState(state)
}

var _ pram.Processor = (*execCombinedProc)(nil)
var _ pram.Resettable = (*execCombinedProc)(nil)
var _ pram.Snapshotter = (*execCombinedProc)(nil)

// Done implements pram.Algorithm: the computation is complete once the
// phase counter passes the last COMMIT phase.
func (e *Executor) Done(mem pram.MemoryView, n, p int) bool {
	return mem.Load(phaseCell) > pram.Word(2*e.prog.Steps())
}

// SimMemory copies the simulated memory out of a finished machine.
func (e *Executor) SimMemory(mem *pram.Memory) []pram.Word {
	return SimMemory(mem, e.prog)
}

// SimMemory copies prog's simulated memory out of a machine built by
// NewMachine.
func SimMemory(mem *pram.Memory, prog Program) []pram.Word {
	l := newLayout(prog.Processors(), 1, prog.MemSize())
	out := make([]pram.Word, prog.MemSize())
	for i := range out {
		out[i] = mem.Load(l.simBase + i)
	}
	return out
}

var _ pram.Algorithm = (*Executor)(nil)
var _ pram.ReadBudgeter = (*Executor)(nil)

// execProc is a real processor executing phase-stamped algorithm X whose
// leaf work simulates PRAM instructions. It has no private state at all:
// position and progress live in shared memory, stamped by phase, so
// failures and restarts need no recovery logic.
type execProc struct {
	pid  int
	prog Program
	lay  layout
	port simPort
}

// Reset implements pram.Resettable. The layout is a pure function of
// (n, p) for the executor's program, so it is kept when they match.
func (e *execProc) Reset(pid, n, p int) {
	e.pid = pid
	if e.lay.n != n || e.lay.p != p {
		e.lay = newLayout(n, p, e.prog.MemSize())
	}
}

const stampShift = 32

func enc(stamp pram.Word, v int) pram.Word { return stamp<<stampShift | pram.Word(v) }
func stampOf(w pram.Word) pram.Word        { return w >> stampShift }
func valOf(w pram.Word) int                { return int(w & (1<<stampShift - 1)) }

// Cycle implements pram.Processor.
func (e *execProc) Cycle(ctx *pram.Ctx) pram.Status {
	l := &e.lay
	tr := &l.tree

	phi := ctx.Read(l.phase)
	if phi > pram.Word(2*e.prog.Steps()) {
		return pram.Halt
	}
	step := int(phi-1) / 2
	commit := (phi-1)%2 == 1

	wv := ctx.Read(tr.W(e.pid))
	if stampOf(wv) != phi {
		// Stale position from an earlier phase (or a fresh start):
		// re-enter the tree at the initial leaf for this phase.
		ctx.Write(tr.W(e.pid), enc(phi, tr.Leaf(e.pid%tr.TreeN)))
		return pram.Continue
	}
	node := valOf(wv)
	dv := ctx.Read(tr.D(node))
	done := dv == phi || l.fullyPadded(node)

	switch {
	case done && node == 1:
		// Root done: advance the phase and anchor the next phase's
		// clock. (All same-tick advancers write the same values; later
		// processors re-enter via the stamp.)
		ctx.Write(l.phase, phi+1)
		ctx.Write(l.start, pram.Word(ctx.Tick()+1))
	case done:
		ctx.Write(tr.W(e.pid), enc(phi, node/2)) // move up
	case tr.IsLeaf(node):
		e.leafWork(ctx, phi, step, commit, node)
	default:
		left := ctx.Read(tr.D(2 * node))
		right := ctx.Read(tr.D(2*node + 1))
		lDone := left == phi || l.fullyPadded(2*node)
		rDone := right == phi || l.fullyPadded(2*node+1)
		switch {
		case lDone && rDone:
			ctx.Write(tr.D(node), phi)
		case lDone:
			ctx.Write(tr.W(e.pid), enc(phi, 2*node+1))
		case rDone:
			ctx.Write(tr.W(e.pid), enc(phi, 2*node))
		default:
			next := 2*node + tr.PIDBit(e.pid, tr.Depth(node))
			ctx.Write(tr.W(e.pid), enc(phi, next))
		}
	}
	return pram.Continue
}

// leafWork visits leaf `node` for simulated processor i = element(node):
// in an EXECUTE phase it runs the instruction and records the write; in a
// COMMIT phase it applies the recorded write. A second visit (observing
// the recorded stamp) marks the leaf done.
func (e *execProc) leafWork(ctx *pram.Ctx, phi pram.Word, step int, commit bool, node int) {
	l := &e.lay
	i := l.tree.Element(node)
	stamp := pram.Word(step + 1)
	a := ctx.Read(l.scrA(i))

	if !commit {
		if stampOf(a) == stamp {
			// Instruction already recorded: mark the leaf done.
			ctx.Write(l.tree.D(node), phi)
			return
		}
		addr, val := e.port.step(e.prog, ctx, l.simBase, step, i)
		// The value must land before (or with) the stamped address:
		// writes commit in order and a failure may cut the cycle after
		// the first write, and a stamp without its value would let
		// another processor mark the leaf done with stale data.
		if addr >= 0 {
			ctx.Write(l.scrV(i), val)
		}
		ctx.Write(l.scrA(i), enc(stamp, addr+1))
		return
	}

	// COMMIT: the scratch stamp can trail the phase only if processor
	// i's EXECUTE work landed (phase phi-1 completed), so stampOf(a) ==
	// stamp always holds here; the value cell needs no stamp because it
	// was written together with scrA.
	if addr := valOf(a); addr > 0 {
		ctx.Write(l.simBase+addr-1, ctx.Read(l.scrV(i)))
	}
	ctx.Write(l.tree.D(node), phi)
}

// SnapshotState implements pram.Snapshotter: execProc is stateless by
// construction (position and progress live in phase-stamped shared
// memory), so there is nothing to capture.
func (e *execProc) SnapshotState() []pram.Word { return nil }

// RestoreState implements pram.Snapshotter.
func (e *execProc) RestoreState(state []pram.Word) error {
	if len(state) != 0 {
		return pram.StateLenError("core: executor X processor", len(state), 0)
	}
	return nil
}

var _ pram.Processor = (*execProc)(nil)
var _ pram.Resettable = (*execProc)(nil)
var _ pram.Snapshotter = (*execProc)(nil)
