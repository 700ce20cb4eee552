package writeall

import "repro/internal/pram"

// WLayout is algorithm W's shared-memory layout: a processor counting tree
// over NextPow2(P) leaves (each node holding a count and an iteration
// stamp so that stale counts from earlier iterations are ignored), followed
// by the same block progress tree algorithm V uses.
type WLayout struct {
	VLayout

	// Pc is the padded (power of two) processor-leaf count of the
	// counting tree; Lp = log2(Pc) its depth.
	Pc, Lp int
	// CBase is the first cell of the counting tree region.
	CBase int
}

// NewWLayout returns W's layout for input size n with p processors.
func NewWLayout(n, p int) WLayout {
	pc := NextPow2(p)
	cbase := n
	// Two cells per counting-tree node: count and stamp.
	vbase := cbase + 2*(2*pc-1)
	return WLayout{
		VLayout: NewVLayout(n, p, vbase),
		Pc:      pc,
		Lp:      Log2(pc),
		CBase:   cbase,
	}
}

// CCount returns the address of counting-tree node v's count cell.
func (l WLayout) CCount(v int) int { return l.CBase + 2*(v-1) }

// CStamp returns the address of counting-tree node v's stamp cell.
func (l WLayout) CStamp(v int) int { return l.CBase + 2*(v-1) + 1 }

// CLeaf returns the counting-tree leaf node of processor pid.
func (l WLayout) CLeaf(pid int) int { return l.Pc + pid }

// TotalSize returns the full memory size including the array x.
func (l WLayout) TotalSize() int { return l.Base + l.VLayout.Size() }

// WIterationLength returns the fixed cycle count of one W iteration:
// enumeration up (Lp+1), rank down (Lp), allocation down (Lb), leaf work
// (BlockSize), leaf mark + progress up (Lb+1).
func (l WLayout) WIterationLength() int {
	return (l.Lp + 1) + l.Lp + l.Lb + l.BlockSize + (l.Lb + 1)
}

// W is algorithm W of [KS 89], the fail-stop (no restart) Write-All
// solution this paper's algorithm V modifies. Its four synchronous phases
// per iteration are:
//
//	W1 count and enumerate the live processors with a static bottom-up
//	   traversal of a processor counting tree;
//	W2 allocate processors to unvisited leaf blocks top-down, using the
//	   dynamic ranks from W1;
//	W3 perform the work at the leaves;
//	W4 update the progress tree bottom-up.
//
// Under failures without restarts its completed work is
// O(N + P log N log P / ...) as analyzed in [KS 89] ([Mar 91] showed
// S = O(N + P log^2 N / log log N)). Under restarts its enumeration counts
// can become inaccurate and termination is not guaranteed - the very
// motivation for algorithm V - so experiments run W only on no-restart
// failure patterns.
type W struct {
	arrayDone
}

// NewW returns algorithm W.
func NewW() *W { return &W{} }

// Name implements pram.Algorithm.
func (w *W) Name() string { return "W" }

// Layout returns W's shared-memory layout.
func (w *W) Layout(n, p int) WLayout { return NewWLayout(n, p) }

// MemorySize implements pram.Algorithm.
func (w *W) MemorySize(n, p int) int { return w.Layout(n, p).TotalSize() }

// Setup implements pram.Algorithm.
func (w *W) Setup(mem *pram.Memory, n, p int) {
	w.Layout(n, p).SetupTree(mem.Store)
}

// NewProcessor implements pram.Algorithm.
func (w *W) NewProcessor(pid, n, p int) pram.Processor {
	return &wProc{pid: pid, lay: w.Layout(n, p)}
}

var _ pram.Algorithm = (*W)(nil)

// wProc is one processor's private state for algorithm W.
type wProc struct {
	pid int
	lay WLayout

	joined bool
	pos    int // current node (counting tree in W1, progress tree in W2-W4)
	rank   int // dynamic rank among enumerated processors (W1)
	total  int // enumerated processor count (W1)
	target int // index among unvisited blocks (W2)
	block  int // allocated leaf block (W3, W4)
}

// Reset implements pram.Resettable, matching W.NewProcessor. The layout
// is a pure function of (n, p), so it is kept when they match.
func (w *wProc) Reset(pid, n, p int) {
	lay := w.lay
	if lay.N != n || lay.P != p {
		lay = NewWLayout(n, p)
	}
	*w = wProc{pid: pid, lay: lay}
}

// Cycle implements pram.Processor.
func (w *wProc) Cycle(ctx *pram.Ctx) pram.Status {
	l := w.lay
	t := l.WIterationLength()
	vt := ctx.Tick()
	o := vt % t
	iter := pram.Word(vt/t + 1)

	if !w.joined {
		if o != 0 {
			_ = ctx.Read(l.CStamp(1)) // wait for the iteration boundary
			return pram.Continue
		}
		w.joined = true
	}

	rankStart := l.Lp + 1
	allocStart := rankStart + l.Lp
	workStart := allocStart + l.Lb
	markAt := workStart + l.BlockSize

	switch {
	case o == 0:
		// W1: announce presence at the counting-tree leaf.
		w.pos = l.CLeaf(w.pid)
		ctx.Write(l.CCount(w.pos), 1)
		ctx.Write(l.CStamp(w.pos), iter)
	case o < rankStart:
		// W1: bottom-up count refresh along the static path.
		w.pos /= 2
		sum := w.stampedCount(ctx, 2*w.pos, iter) + w.stampedCount(ctx, 2*w.pos+1, iter)
		ctx.Write(l.CCount(w.pos), pram.Word(sum))
		ctx.Write(l.CStamp(w.pos), iter)
	case o < allocStart:
		// W1 (enumeration): top-down rank computation along the static
		// path back to the leaf; going right adds the left sibling's
		// count.
		if o == rankStart {
			w.pos = 1
			w.rank = 0
			w.total = w.stampedCount(ctx, 1, iter)
			if w.total <= 0 {
				w.total = 1
			}
		}
		bit := (w.pid >> uint(l.Lp-1-(o-rankStart))) & 1
		if bit == 1 {
			w.rank += w.stampedCount(ctx, 2*w.pos, iter)
		}
		w.pos = 2*w.pos + bit
		if o == allocStart-1 {
			// Entering W2 next cycle.
			w.pos = 1
		}
	case o < workStart:
		// W2: top-down allocation over the progress tree, balanced by
		// dynamic rank. (This branch is empty when Blocks == 1.)
		if o == allocStart {
			if halt := w.allocInit(ctx); halt {
				return pram.Halt
			}
		}
		left := 2 * w.pos
		ul := l.LeavesUnder(left) - int(ctx.Read(l.B(left)))
		if w.target < ul {
			w.pos = left
		} else {
			w.target -= ul
			w.pos = left + 1
		}
		if o == workStart-1 {
			w.block = w.pos - l.Blocks
		}
	case o < markAt:
		// W3: work at the leaf block. With a single block the
		// allocation phase is empty, so its initialization (and the
		// all-done check) happens on the first work cycle.
		if o == workStart && l.Lb == 0 {
			if halt := w.allocInit(ctx); halt {
				return pram.Halt
			}
		}
		elem := w.block*l.BlockSize + (o - workStart)
		if elem < l.N {
			ctx.Write(elem, 1)
		}
	case o == markAt:
		// W4: mark the leaf block done.
		w.pos = l.LeafNode(w.block)
		ctx.Write(l.B(w.pos), 1)
	default:
		// W4: bottom-up progress refresh.
		w.pos /= 2
		sum := ctx.Read(l.B(2*w.pos)) + ctx.Read(l.B(2*w.pos+1))
		ctx.Write(l.B(w.pos), sum)
	}
	return pram.Continue
}

// allocInit starts phase W2: it reads the root progress count, halts if no
// work remains, and fixes the processor's target unvisited block from its
// dynamic rank: i = floor(rank * U / total).
func (w *wProc) allocInit(ctx *pram.Ctx) (halt bool) {
	l := w.lay
	u := l.Blocks - int(ctx.Read(l.B(1)))
	if u <= 0 {
		return true
	}
	if w.total <= 0 {
		// P == 1 machines have an empty enumeration phase.
		w.total, w.rank = 1, 0
	}
	w.target = w.rank % w.total * u / w.total
	w.pos = 1
	w.block = 0
	return false
}

// stampedCount reads counting-tree node v's count, treating values from
// earlier iterations as zero.
func (w *wProc) stampedCount(ctx *pram.Ctx, v int, iter pram.Word) int {
	c := ctx.Read(w.lay.CCount(v))
	if ctx.Read(w.lay.CStamp(v)) != iter {
		return 0
	}
	return int(c)
}

// SnapshotState implements pram.Snapshotter: the mutable traversal and
// enumeration state. pid and layout are reapplied by Reset/NewProcessor.
func (w *wProc) SnapshotState() []pram.Word {
	return []pram.Word{
		b2w(w.joined), pram.Word(w.pos), pram.Word(w.rank),
		pram.Word(w.total), pram.Word(w.target), pram.Word(w.block),
	}
}

// RestoreState implements pram.Snapshotter.
func (w *wProc) RestoreState(state []pram.Word) error {
	if len(state) != 6 {
		return pram.StateLenError("writeall: W processor", len(state), 6)
	}
	w.joined = state[0] != 0
	w.pos = int(state[1])
	w.rank = int(state[2])
	w.total = int(state[3])
	w.target = int(state[4])
	w.block = int(state[5])
	return nil
}

var _ pram.Processor = (*wProc)(nil)
var _ pram.Snapshotter = (*wProc)(nil)
