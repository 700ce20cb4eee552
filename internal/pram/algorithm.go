package pram

// Processor is one simulated PRAM processor's program, expressed as a
// sequence of update cycles. A Processor value holds the processor's
// private memory; the machine stops calling it on failure and on restart
// resets it in place (see Resettable) or obtains a fresh one via
// Algorithm.NewProcessor, so private state never survives a failure. The
// stable action counter exposed through Ctx is the only state that does.
type Processor interface {
	// Cycle executes one update cycle: at most MaxReadsPerCycle shared
	// reads, constant private computation, and at most MaxWritesPerCycle
	// buffered shared writes, all through ctx. Returning Halt exits the
	// computation once the cycle commits.
	Cycle(ctx *Ctx) Status
}

// Algorithm describes a fault-tolerant PRAM algorithm to the machine.
type Algorithm interface {
	// Name identifies the algorithm in metrics and experiment tables.
	Name() string

	// MemorySize reports the number of shared cells the algorithm needs
	// for an input of size n with p processors.
	MemorySize(n, p int) int

	// Setup writes the algorithm's initial shared-memory contents. The
	// memory arrives zeroed, matching the paper's convention.
	Setup(mem *Memory, n, p int)

	// NewProcessor returns the initial (and post-restart) private state
	// of processor pid. Restarted processors know only their PID, the
	// machine parameters, and their stable action counter.
	NewProcessor(pid, n, p int) Processor

	// Done reports whether the algorithm's task is complete. The machine
	// polls it once per tick, through the read-only view, to terminate
	// runs, unless the algorithm implements ArrayDoneHinter: then it
	// keeps a counter instead and never calls Done, which stays the
	// oracle that the reference stepper and the done-hint tests hold the
	// counter to.
	Done(mem MemoryView, n, p int) bool
}

// Resettable is an optional interface for Processor implementations whose
// private state can be reinitialized in place. Reset(pid, n, p) must leave
// the processor bit-identical to a fresh Algorithm.NewProcessor(pid, n, p)
// result. The machine uses it to recycle processor allocations across
// restarts (a restarted processor is indistinguishable from a fresh one by
// the model's definition: it knows only its PID, the machine parameters,
// and its stable counter) and — when Machine.Reset is handed the same
// Algorithm value again — across whole runs. Algorithms whose NewProcessor
// has side effects or hands out per-incarnation state (e.g. ACC's random
// streams) must simply not implement it.
type Resettable interface {
	Reset(pid, n, p int)
}

// ReadBudgeter is an optional Algorithm interface for algorithms whose
// update cycles read more than MaxReadsPerCycle cells by a constant of
// their own, as the robust executor of Theorem 4.1 does. ReadBudget is
// the read bound the machine enforces instead; Machine.Reset resolves it
// once per run. The write bound stays MaxWritesPerCycle.
type ReadBudgeter interface {
	ReadBudget() int
}

// ArrayDoneHinter is an optional Algorithm interface for "array-style"
// completion predicates of the form "cells [0, k) are all non-zero" — the
// shape of every Write-All Done check. When an algorithm provides it, the
// machine maintains a remaining-unset counter incrementally in the commit
// phase and answers Done in O(1) instead of rescanning memory every tick
// (O(N·T) over a run). DoneCells returns the prefix length k; returning a
// non-positive value declines the hint for that run. The polled Done
// predicate remains the semantic oracle: the two must agree on every
// reachable memory state, which the equivalence tests check by running
// the same grid with the algorithm wrapped in struct{ Algorithm }, whose
// promoted methods leave DoneCells out. Beware method promotion the other
// way: a wrapper that embeds a concrete hinting algorithm and overrides
// Done inherits DoneCells too, and must shadow it (returning 0) if its
// Done is no longer the array predicate.
type ArrayDoneHinter interface {
	DoneCells(n, p int) int
}

// Inline Ctx buffer capacities. The model caps an update cycle at
// MaxReadsPerCycle reads and MaxWritesPerCycle writes; a ReadBudgeter can
// raise the read bound (the robust executor of Theorem 4.1 uses up to 9
// reads), so the inline arrays cover every budget used in-tree and a
// spill slice keeps larger budgets correct — they only lose the
// zero-allocation guarantee, never correctness.
const (
	ctxInlineReads  = 12
	ctxInlineWrites = 4
)

// Ctx carries one processor's view of the machine during a single update
// cycle. Reads observe the shared memory as of the start of the tick;
// writes are buffered and committed synchronously at the end of the tick
// under the COMMON rule. The read/write logs live in fixed
// inline arrays (cycles are constant-size by the model), so steady-state
// cycles allocate nothing.
type Ctx struct {
	pid  int
	n    int
	p    int
	tick int

	mem        MemoryView
	reads      int
	readA      [ctxInlineReads]int
	readSpill  []int
	nWrites    int
	writeA     [ctxInlineWrites]WriteOp
	writeSpill []WriteOp
	snapshots  int

	stable    Word
	newStable Word
	stableSet bool
}

// PID returns the processor's permanent identifier in [0, P).
func (c *Ctx) PID() int { return c.pid }

// N returns the input size.
func (c *Ctx) N() int { return c.n }

// P returns the number of processors.
func (c *Ctx) P() int { return c.p }

// Tick returns the global synchronous clock. All PRAM processors share
// this clock (the model is synchronous), which is how algorithm V's
// iteration wrap-around counter re-synchronizes restarted processors.
func (c *Ctx) Tick() int { return c.tick }

// Read returns the value of shared cell addr as of the start of this tick.
func (c *Ctx) Read(addr int) Word {
	if c.reads < len(c.readA) {
		c.readA[c.reads] = addr
	} else {
		if c.reads == len(c.readA) {
			c.readSpill = append(c.readSpill[:0], c.readA[:]...)
		}
		c.readSpill = append(c.readSpill, addr)
	}
	c.reads++
	return c.mem.Load(addr)
}

// Write buffers a write of v to shared cell addr. Writes commit at the end
// of the tick; if the processor is failed mid-cycle only a prefix of its
// buffered writes commits (word writes are atomic, so each buffered write
// either lands completely or not at all).
func (c *Ctx) Write(addr int, v Word) {
	if c.nWrites < len(c.writeA) {
		c.writeA[c.nWrites] = WriteOp{Addr: addr, Val: v}
	} else {
		if c.nWrites == len(c.writeA) {
			c.writeSpill = append(c.writeSpill[:0], c.writeA[:]...)
		}
		c.writeSpill = append(c.writeSpill, WriteOp{Addr: addr, Val: v})
	}
	c.nWrites++
}

// readAddrs returns the addresses read so far this cycle, in program
// order. The slice aliases Ctx-owned storage valid until the next reset.
func (c *Ctx) readAddrs() []int {
	if c.reads <= len(c.readA) {
		return c.readA[:c.reads]
	}
	return c.readSpill[:c.reads]
}

// writeOps returns the writes buffered so far this cycle, in program
// order. The slice aliases Ctx-owned storage valid until the next reset.
func (c *Ctx) writeOps() []WriteOp {
	if c.nWrites <= len(c.writeA) {
		return c.writeA[:c.nWrites]
	}
	return c.writeSpill[:c.nWrites]
}

// Snapshot copies the entire shared memory into dst at unit cost. It is
// the strong instruction assumed by Theorem 3.2 ("processors can read and
// locally process the entire shared memory at unit cost") and is only
// legal on machines configured with AllowSnapshot.
func (c *Ctx) Snapshot(dst []Word) []Word {
	c.snapshots++
	return c.mem.CopyInto(dst)
}

// Stable returns the processor's stable action counter: the one word of
// state that survives failures (the checkpointed instruction counter of
// [SS 83], cf. the paper's Remark 6). It is zero initially.
func (c *Ctx) Stable() Word { return c.stable }

// SetStable records a new value for the stable action counter. Like the
// cycle's writes, it commits only if the cycle completes ("checkpointing
// the instruction counter ... as the last instruction of an action").
func (c *Ctx) SetStable(v Word) {
	c.newStable = v
	c.stableSet = true
}

func (c *Ctx) reset(tick int, stable Word) {
	c.tick = tick
	c.reads = 0
	c.nWrites = 0
	c.snapshots = 0
	c.stable = stable
	c.newStable = 0
	c.stableSet = false
}
