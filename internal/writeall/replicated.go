package writeall

import "repro/internal/pram"

// Replicated is the maximal-redundancy baseline: every processor sweeps
// the whole array (starting at its own offset, skipping cells it reads as
// already set). Its worst-case completed work is Theta(N * P) - the
// quadratic cost the paper's algorithms exist to avoid - and because its
// sweep position is private, a restarted processor starts over: under
// sustained restart churn in which no processor survives a full sweep it
// never terminates. It brackets the trade-off space from the opposite
// side of Trivial, and together they show why progress must live in
// shared memory (as in V and X) to survive the restart model.
type Replicated struct {
	arrayDone
}

// NewReplicated returns the quadratic maximal-redundancy baseline.
func NewReplicated() *Replicated { return &Replicated{} }

// Name implements pram.Algorithm.
func (r *Replicated) Name() string { return "replicated" }

// MemorySize implements pram.Algorithm.
func (r *Replicated) MemorySize(n, p int) int { return n }

// Setup implements pram.Algorithm.
func (r *Replicated) Setup(mem *pram.Memory, n, p int) {}

// NewProcessor implements pram.Algorithm.
func (r *Replicated) NewProcessor(pid, n, p int) pram.Processor {
	return &replicatedProc{pid: pid, n: n}
}

var _ pram.Algorithm = (*Replicated)(nil)

type replicatedProc struct {
	pid, n int
	k      int // private sweep position; lost on failure
}

// Reset implements pram.Resettable.
func (r *replicatedProc) Reset(pid, n, p int) { *r = replicatedProc{pid: pid, n: n} }

// Cycle implements pram.Processor: read one cell, write it if unset.
func (r *replicatedProc) Cycle(ctx *pram.Ctx) pram.Status {
	if r.k >= r.n {
		return pram.Halt
	}
	addr := (r.pid + r.k) % r.n
	r.k++
	if ctx.Read(addr) == 0 {
		ctx.Write(addr, 1)
	}
	return pram.Continue
}

// SnapshotState implements pram.Snapshotter: the private sweep position.
func (r *replicatedProc) SnapshotState() []pram.Word { return []pram.Word{pram.Word(r.k)} }

// RestoreState implements pram.Snapshotter.
func (r *replicatedProc) RestoreState(state []pram.Word) error {
	if len(state) != 1 {
		return pram.StateLenError("writeall: replicated processor", len(state), 1)
	}
	r.k = int(state[0])
	return nil
}

var _ pram.Processor = (*replicatedProc)(nil)
var _ pram.Snapshotter = (*replicatedProc)(nil)
