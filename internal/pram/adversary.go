package pram

// FailPoint locates a failure within an update cycle. The paper allows
// failures to occur between the instructions of a cycle but not in the
// middle of an atomic word write (Section 2.1, condition 2(ii)).
type FailPoint int

const (
	// NoFailure means the processor completes its cycle.
	NoFailure FailPoint = iota
	// FailBeforeReads kills the processor before it executes any
	// instruction of the cycle: nothing happens and nothing is charged.
	FailBeforeReads
	// FailAfterReads kills the processor after its reads but before any
	// write commits. This is the thrashing adversary's move (Example
	// 2.2): work happened but no progress and no charge.
	FailAfterReads
	// FailAfterWrite1 kills the processor after its first buffered write
	// commits but before any later write. Word writes are atomic, so a
	// prefix of the cycle's writes lands.
	FailAfterWrite1
)

// String implements fmt.Stringer for FailPoint.
func (f FailPoint) String() string {
	switch f {
	case NoFailure:
		return "none"
	case FailBeforeReads:
		return "before-reads"
	case FailAfterReads:
		return "after-reads"
	case FailAfterWrite1:
		return "after-write-1"
	default:
		return "invalid"
	}
}

// Intent is what one processor will do this tick if it is allowed to
// complete its update cycle. The adversary is on-line and omniscient
// ("knows everything about the algorithm", Definition 2.1 context), which
// for a deterministic algorithm means it can predict each cycle; the
// machine computes that prediction once and shares it.
type Intent struct {
	// Reads lists the shared addresses the cycle reads, in order.
	Reads []int
	// Writes lists the writes the cycle performs if it completes.
	Writes []WriteOp
	// Halts reports whether the processor exits after this cycle.
	Halts bool
	// Snapshot reports whether the cycle used the unit-cost full-memory
	// read of Theorem 3.2.
	Snapshot bool
}

// WriteOp is a single intended shared-memory write.
type WriteOp struct {
	Addr int
	Val  Word
}

// View is the adversary's complete, read-only view of the machine at the
// start of a tick. It is built from the same immutable MemoryView and
// StateView handed to update cycles: an adversary physically cannot
// mutate machine state; it acts only through the Decision it returns.
type View struct {
	// Tick is the global clock value.
	Tick int
	// N and P are the input size and processor count.
	N, P int
	// Mem is the shared memory as of the start of the tick.
	Mem MemoryView
	// States holds each processor's liveness.
	States StateView
	// Intents holds, for each alive processor, the cycle it is about to
	// execute; entries for dead and halted processors are nil.
	// Adversaries must not modify the intents.
	Intents []*Intent
	// Alive is the number of processors executing a cycle this tick.
	Alive int
	// Changed lists the PIDs whose state changed since the previous
	// Decide on this machine — deaths, halts (quiet windows included),
	// restarts and forced restarts — in the order they happened, a PID
	// once per change. It lets an adversary that indexes processors by
	// state update the index in O(changes) instead of rescanning States.
	// The slice is machine-owned and valid only during the call.
	Changed []int
	// Resync is set on the first Decide after New, Reset or
	// RestoreSnapshot, when Changed does not cover the machine's history.
	// An adversary that keeps an index rebuilds it from States when
	// Resync is set, and also when Tick is not one past its previous
	// call: a quiet window skips calls.
	Resync bool
}

// Failure is one processor the adversary kills this tick, and where in
// its update cycle.
type Failure struct {
	PID   int
	Point FailPoint
}

// Decision is the adversary's move for one tick: which live processors to
// fail (and where in their cycles), and which dead processors to restart.
// Restarted processors resume from their initial state (plus stable
// counter) on the next tick. The machine applies Failures in order: the
// first entry for a PID wins, and entries with Point NoFailure are
// ignored. Decision slices need only stay valid until the adversary's
// next Decide, so an adversary may return per-instance buffers it
// reuses; the machine never writes into them.
type Decision struct {
	// Failures lists the processors killed this tick. Processors absent
	// from it survive the tick.
	Failures []Failure
	// Restarts lists dead PIDs to revive.
	Restarts []int
}

// Adversary is an on-line failure/restart adversary. Decide is called once
// per tick with full knowledge of the machine; the machine enforces the
// paper's liveness rule (at least one processor completes an update cycle)
// afterwards by vetoing one failure of a tick that would fail them all.
type Adversary interface {
	// Name identifies the adversary in metrics and experiment tables.
	Name() string
	// Decide returns the failures and restarts for this tick. The view
	// is only valid for the duration of the call.
	Decide(v *View) Decision
}
