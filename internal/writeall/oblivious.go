package writeall

import "repro/internal/pram"

// Oblivious is the load-balancing strategy from the proof of Theorem 3.2,
// defined in the strong model where a processor can read and locally
// process the entire shared memory at unit cost: each cycle a processor
// snapshots the array, numbers the U unvisited elements by position, and
// assigns itself to the i-th of them with i = floor(PID * U / P). Its
// completed work under any failure/restart pattern is Theta(N log N) with
// N processors, matching the Theorem 3.1 lower bound (which holds even in
// this strong model).
//
// Machines running it must set Config.AllowSnapshot.
type Oblivious struct {
	arrayDone
}

// NewOblivious returns the Theorem 3.2 snapshot algorithm.
func NewOblivious() *Oblivious { return &Oblivious{} }

// Name implements pram.Algorithm.
func (o *Oblivious) Name() string { return "oblivious" }

// MemorySize implements pram.Algorithm.
func (o *Oblivious) MemorySize(n, p int) int { return n }

// Setup implements pram.Algorithm.
func (o *Oblivious) Setup(mem *pram.Memory, n, p int) {}

// NewProcessor implements pram.Algorithm.
func (o *Oblivious) NewProcessor(pid, n, p int) pram.Processor {
	return &obliviousProc{pid: pid, n: n, p: p}
}

var _ pram.Algorithm = (*Oblivious)(nil)

type obliviousProc struct {
	pid, n, p int
	snap      []pram.Word // scratch, reused across cycles
}

// Reset implements pram.Resettable. The snapshot scratch is kept: it is
// overwritten in full by the next Snapshot, so a recycled processor is
// indistinguishable from a fresh one.
func (o *obliviousProc) Reset(pid, n, p int) {
	*o = obliviousProc{pid: pid, n: n, p: p, snap: o.snap}
}

// Cycle implements pram.Processor: one unit-cost snapshot, local
// balancing, one write.
func (o *obliviousProc) Cycle(ctx *pram.Ctx) pram.Status {
	o.snap = ctx.Snapshot(o.snap)
	u := 0
	for i := 0; i < o.n; i++ {
		if o.snap[i] == 0 {
			u++
		}
	}
	if u == 0 {
		return pram.Halt
	}
	target := o.pid % o.p * u / o.p
	seen := 0
	for i := 0; i < o.n; i++ {
		if o.snap[i] != 0 {
			continue
		}
		if seen == target {
			ctx.Write(i, 1)
			break
		}
		seen++
	}
	return pram.Continue
}

// SnapshotState implements pram.Snapshotter: the snapshot scratch is
// overwritten in full each cycle, so the processor is stateless.
func (o *obliviousProc) SnapshotState() []pram.Word { return nil }

// RestoreState implements pram.Snapshotter.
func (o *obliviousProc) RestoreState(state []pram.Word) error {
	if len(state) != 0 {
		return pram.StateLenError("writeall: oblivious processor", len(state), 0)
	}
	return nil
}

var _ pram.Processor = (*obliviousProc)(nil)
var _ pram.Snapshotter = (*obliviousProc)(nil)
