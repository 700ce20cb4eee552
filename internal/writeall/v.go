package writeall

import "repro/internal/pram"

// V is the paper's Section 4.1 algorithm: a modification of algorithm W of
// [KS 89] that tolerates restarts. Each iteration has three synchronous
// phases executed by all participating processors in lock step:
//
//	1' allocate processors to unvisited leaf blocks by a top-down
//	   divide-and-conquer traversal of the progress tree, load-balanced
//	   with the permanent PIDs as in the proof of Theorem 3.2;
//	2' perform the work at the reached leaf block (log N array elements
//	   per leaf);
//	3' update the progress tree bottom-up.
//
// An iteration wrap-around counter (in shared memory, incremented at every
// iteration start) realizes the paper's restart re-synchronization: a
// restarted processor waits for the wrap-around and rejoins at phase 1'.
// The wrap-around point is fixed by the program length (VLayout's
// IterationLength), exactly as the paper prescribes.
//
// Completed work: S = O(N + P log^2 N) without restarts (Lemma 4.2) and
// S = O(N + P log^2 N + M log N) under a failure/restart pattern of size M
// (Theorem 4.3). V alone may fail to terminate if the adversary never lets
// a processor survive a whole iteration; the Combined algorithm pairs it
// with X for guaranteed termination.
type V struct {
	arrayDone
}

// NewV returns algorithm V.
func NewV() *V { return &V{} }

// Name implements pram.Algorithm.
func (v *V) Name() string { return "V" }

// Layout returns V's shared-memory layout for the given parameters.
func (v *V) Layout(n, p int) VLayout { return NewVLayout(n, p, n) }

// MemorySize implements pram.Algorithm.
func (v *V) MemorySize(n, p int) int {
	l := v.Layout(n, p)
	return l.Base + l.Size()
}

// Setup implements pram.Algorithm.
func (v *V) Setup(mem *pram.Memory, n, p int) {
	v.Layout(n, p).SetupTree(mem.Store)
}

// NewProcessor implements pram.Algorithm.
func (v *V) NewProcessor(pid, n, p int) pram.Processor {
	return newVProc(pid, v.Layout(n, p), 0, 1)
}

var _ pram.Algorithm = (*V)(nil)

// vProc is one processor's private state for algorithm V. All of it is
// lost on failure; a restarted processor simply waits (joined=false) for
// the next iteration boundary.
type vProc struct {
	pid int
	lay VLayout

	// tickShift and tickDiv map the machine clock to V's virtual clock,
	// so the Combined algorithm can run V on alternate ticks.
	tickShift, tickDiv int

	joined bool
	pos    int // current progress-tree node
	target int // index among unvisited blocks (phase 1')
	block  int // allocated leaf block (phases 2'-3')
}

func newVProc(pid int, lay VLayout, tickShift, tickDiv int) *vProc {
	return &vProc{pid: pid, lay: lay, tickShift: tickShift, tickDiv: tickDiv}
}

// Reset implements pram.Resettable for the standalone V algorithm,
// matching V.NewProcessor (tickShift 0, tickDiv 1). Combined resets its
// component vProc itself with its own clock mapping. The layout is a
// pure function of (n, p), so it is kept when they match.
func (v *vProc) Reset(pid, n, p int) {
	lay := v.lay
	if lay.N != n || lay.P != p {
		lay = NewVLayout(n, p, n)
	}
	*v = vProc{pid: pid, lay: lay, tickDiv: 1}
}

// Cycle implements pram.Processor. The phase is derived from the global
// synchronous clock: offset o = vt mod T with T the fixed iteration
// length. Every branch stays within the update-cycle budget (at most 4
// reads, 2 writes).
func (v *vProc) Cycle(ctx *pram.Ctx) pram.Status {
	l := v.lay
	t := l.IterationLength()
	vt := (ctx.Tick() - v.tickShift) / v.tickDiv
	o := vt % t

	if !v.joined {
		if o != 0 {
			// Restarted mid-iteration: wait for the wrap-around,
			// observing the iteration counter (a completed, charged
			// no-op cycle - the O(log N) "wasted" work per restart
			// in the Theorem 4.3 accounting).
			_ = ctx.Read(l.Iter())
			return pram.Continue
		}
		v.joined = true
	}

	if o == 0 {
		// Iteration start: advance the wrap-around counter, read the
		// root progress count, and fix this iteration's target
		// unvisited block: i = floor(PID * U / P) as in Theorem 3.2.
		ctx.Write(l.Iter(), pram.Word(vt/t+1))
		u := l.Blocks - int(ctx.Read(l.B(1)))
		if u <= 0 {
			return pram.Halt
		}
		v.target = v.pid % l.P * u / l.P
		v.pos = 1
		v.block = 0
	}

	switch {
	case o < l.Lb:
		// Phase 1': descend one level, splitting processors in
		// proportion to the unvisited blocks under each child.
		left := 2 * v.pos
		ul := l.LeavesUnder(left) - int(ctx.Read(l.B(left)))
		if v.target < ul {
			v.pos = left
		} else {
			v.target -= ul
			v.pos = left + 1
		}
		if o == l.Lb-1 {
			v.block = v.pos - l.Blocks
		}
	case o < l.Lb+l.BlockSize:
		// Phase 2': work at the leaf block, one element per cycle.
		elem := v.block*l.BlockSize + (o - l.Lb)
		if elem < l.N {
			ctx.Write(elem, 1)
		}
	case o == l.Lb+l.BlockSize:
		// Phase 3' begins: mark the block's leaf done. The processor
		// wrote every element of the block itself during phase 2'
		// (restarted processors wait out the iteration), so the mark
		// is sound.
		v.pos = l.LeafNode(v.block)
		ctx.Write(l.B(v.pos), 1)
	default:
		// Phase 3': ascend, refreshing each node from its children.
		v.pos /= 2
		sum := ctx.Read(l.B(2*v.pos)) + ctx.Read(l.B(2*v.pos+1))
		ctx.Write(l.B(v.pos), sum)
	}
	return pram.Continue
}

// SnapshotState implements pram.Snapshotter: the mutable traversal
// state. pid, layout, and the clock mapping are per-incarnation
// configuration reapplied by NewProcessor/Reset before RestoreState.
func (v *vProc) SnapshotState() []pram.Word {
	return []pram.Word{b2w(v.joined), pram.Word(v.pos), pram.Word(v.target), pram.Word(v.block)}
}

// RestoreState implements pram.Snapshotter.
func (v *vProc) RestoreState(state []pram.Word) error {
	if len(state) != 4 {
		return pram.StateLenError("writeall: V processor", len(state), 4)
	}
	v.joined = state[0] != 0
	v.pos = int(state[1])
	v.target = int(state[2])
	v.block = int(state[3])
	return nil
}

var _ pram.Processor = (*vProc)(nil)
var _ pram.Snapshotter = (*vProc)(nil)
