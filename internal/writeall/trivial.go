package writeall

import "repro/internal/pram"

// Trivial is the optimal failure-free Write-All solution: processor pid
// writes cells pid, pid+P, pid+2P, ... in round-robin. It keeps its
// position in private memory, so a failure sends it back to its first
// cell; it is the "trivial and optimal parallel assignment" the paper
// notes is not fault-tolerant, and the natural victim of the thrashing
// adversary of Example 2.2.
type Trivial struct {
	arrayDone
}

// NewTrivial returns the trivial parallel-assignment algorithm.
func NewTrivial() *Trivial { return &Trivial{} }

// Name implements pram.Algorithm.
func (t *Trivial) Name() string { return "trivial" }

// MemorySize implements pram.Algorithm.
func (t *Trivial) MemorySize(n, p int) int { return n }

// Setup implements pram.Algorithm.
func (t *Trivial) Setup(mem *pram.Memory, n, p int) {}

// NewProcessor implements pram.Algorithm.
func (t *Trivial) NewProcessor(pid, n, p int) pram.Processor {
	return &trivialProc{pid: pid, n: n, p: p}
}

type trivialProc struct {
	pid, n, p int
	k         int // private: next stride index; lost on failure
}

// Reset implements pram.Resettable: a fresh incarnation restarts the
// stride from the beginning, exactly like NewProcessor.
func (t *trivialProc) Reset(pid, n, p int) { *t = trivialProc{pid: pid, n: n, p: p} }

// Cycle implements pram.Processor.
func (t *trivialProc) Cycle(ctx *pram.Ctx) pram.Status {
	addr := t.pid + t.k*t.p
	if addr >= t.n {
		return pram.Halt
	}
	ctx.Write(addr, 1)
	t.k++
	return pram.Continue
}

// CycleBatch implements pram.BatchCycler: up to k stride cycles
// committed in one call. Stride cells are disjoint across processors
// and never read, so the cycles are oblivious over any failure-free
// window. The cycles' cells go to one FillStride, which the machine
// merges with the other processors' strides of the window into whole
// rows filled a word per op; the done-hint counter stays exact either
// way.
func (t *trivialProc) CycleBatch(b *pram.BatchCtx, k int) (int, pram.Status) {
	first, cnt := t.pid+t.k*t.p, 0
	if first < t.n {
		cnt = min(k, (t.n-first+t.p-1)/t.p)
	}
	if cnt > 0 {
		b.FillStride(first, t.p, cnt)
		b.Charge(0, 1)
		t.k += cnt
	}
	if cnt < k {
		// The stride ran out: the next cycle completes as the halting
		// one (it just writes nothing).
		return cnt + 1, pram.Halt
	}
	return k, pram.Continue
}

// SnapshotState implements pram.Snapshotter: the private stride index.
func (t *trivialProc) SnapshotState() []pram.Word { return []pram.Word{pram.Word(t.k)} }

// RestoreState implements pram.Snapshotter.
func (t *trivialProc) RestoreState(state []pram.Word) error {
	if len(state) != 1 {
		return pram.StateLenError("writeall: trivial processor", len(state), 1)
	}
	t.k = int(state[0])
	return nil
}

var _ pram.Algorithm = (*Trivial)(nil)
var _ pram.Snapshotter = (*trivialProc)(nil)

// Sequential is a single-processor Write-All baseline whose position is
// checkpointed in the stable action counter, so it resumes where it
// stopped after a failure. Only processor 0 works; other processors halt
// immediately. Its completed work is N regardless of the failure pattern,
// which makes it the T(|I|) = Theta(|I|) reference of Remark 3.
type Sequential struct {
	arrayDone
}

// NewSequential returns the sequential checkpointing baseline.
func NewSequential() *Sequential { return &Sequential{} }

// Name implements pram.Algorithm.
func (s *Sequential) Name() string { return "sequential" }

// MemorySize implements pram.Algorithm.
func (s *Sequential) MemorySize(n, p int) int { return n }

// Setup implements pram.Algorithm.
func (s *Sequential) Setup(mem *pram.Memory, n, p int) {}

// NewProcessor implements pram.Algorithm.
func (s *Sequential) NewProcessor(pid, n, p int) pram.Processor {
	return &sequentialProc{pid: pid, n: n}
}

type sequentialProc struct {
	pid, n int
}

// Reset implements pram.Resettable.
func (s *sequentialProc) Reset(pid, n, p int) { *s = sequentialProc{pid: pid, n: n} }

// Cycle implements pram.Processor.
func (s *sequentialProc) Cycle(ctx *pram.Ctx) pram.Status {
	if s.pid != 0 {
		return pram.Halt
	}
	pos := int(ctx.Stable())
	if pos >= s.n {
		return pram.Halt
	}
	ctx.Write(pos, 1)
	ctx.SetStable(pram.Word(pos + 1))
	return pram.Continue
}

// CycleBatch implements pram.BatchCycler: the sweep advances
// min(k, n-pos) positions as one contiguous FillOnes — a word per op
// over a packed array — with a single stable-counter checkpoint at the
// window end (intermediate checkpoints are unobservable in a
// failure-free window). Only processor 0 works; the rest complete one
// halting cycle, as per-tick.
func (s *sequentialProc) CycleBatch(b *pram.BatchCtx, k int) (int, pram.Status) {
	if s.pid != 0 {
		return 1, pram.Halt
	}
	pos := int(b.Stable())
	if pos >= s.n {
		return 1, pram.Halt
	}
	cnt := min(k, s.n-pos)
	b.FillOnes(pos, pos+cnt)
	b.SetStable(pram.Word(pos + cnt))
	b.Charge(0, 1)
	if pos+cnt >= s.n && cnt < k {
		// The next cycle in the window would halt. Unreachable under the
		// machine's completion-distance guard (Done fires first), but it
		// keeps the per-cycle semantics exact for any caller.
		return cnt + 1, pram.Halt
	}
	return cnt, pram.Continue
}

// SnapshotState implements pram.Snapshotter: the sweep position lives
// entirely in the stable action counter, which the machine captures.
func (s *sequentialProc) SnapshotState() []pram.Word { return nil }

// RestoreState implements pram.Snapshotter.
func (s *sequentialProc) RestoreState(state []pram.Word) error {
	if len(state) != 0 {
		return pram.StateLenError("writeall: sequential processor", len(state), 0)
	}
	return nil
}

var _ pram.Algorithm = (*Sequential)(nil)
var _ pram.Snapshotter = (*sequentialProc)(nil)
