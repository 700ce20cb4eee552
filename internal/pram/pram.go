// Package pram implements a deterministic, synchronous CRCW PRAM simulator
// whose processors are subject to fail-stop failures and restarts chosen by
// an on-line adversary, following the model of Kanellakis and Shvartsman,
// "Efficient Parallel Algorithms on Restartable Fail-Stop Processors"
// (PODC 1991).
//
// The machine advances in clock ticks. In each tick every live processor
// attempts one update cycle (a bounded block of shared reads, constant
// private computation, and shared writes). The adversary observes the
// complete machine state, including the writes every processor intends to
// perform this tick, and may fail any processor before its reads, after its
// reads, or after any prefix of its writes; it may also restart failed
// processors. Failed processors lose all private memory except a single
// stable action counter (the checkpointed instruction counter of
// Schlichting and Schneider's fail-stop processors, cf. Remark 6 of the
// paper).
//
// Accounting follows the paper exactly: completed work S charges one unit
// per completed update cycle, S' additionally charges killed-in-progress
// cycles, and the overhead ratio sigma amortizes S over the input size plus
// the number of failure and restart events.
package pram

// Word is the unit of shared and private storage. Shared memory cells hold
// O(log max{N,P})-bit values in the paper's model; a 64-bit word is ample.
type Word = int64

// Status is returned by a processor's update cycle to indicate whether the
// processor continues or exits the computation.
type Status int

const (
	// Continue means the processor attempts another update cycle on the
	// next tick.
	Continue Status = iota + 1
	// Halt means the processor exits the algorithm once this cycle
	// commits. Halted processors can no longer fail or restart.
	Halt
)

// ProcState describes the liveness of a simulated processor.
type ProcState int

const (
	// Alive processors attempt one update cycle per tick.
	Alive ProcState = iota + 1
	// Dead processors have failed and perform no work until restarted.
	Dead
	// Halted processors have exited the algorithm permanently.
	Halted
)

// String implements fmt.Stringer for ProcState.
func (s ProcState) String() string {
	switch s {
	case Alive:
		return "alive"
	case Dead:
		return "dead"
	case Halted:
		return "halted"
	default:
		return "invalid"
	}
}

const (
	// MaxReadsPerCycle is the paper's bound on shared-memory reads in one
	// update cycle (Section 2.1).
	MaxReadsPerCycle = 4
	// MaxWritesPerCycle is the paper's bound on shared-memory writes in
	// one update cycle (Section 2.1).
	MaxWritesPerCycle = 2
)
