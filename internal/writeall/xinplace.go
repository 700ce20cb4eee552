package writeall

import "repro/internal/pram"

// XInPlace is the Remark 7 variant of algorithm X: Write-All solved "in
// place", using the array x itself as the progress heap - no separate
// done array. Heap node v (1-based) lives in cell x[v]; the leaves are
// the cells [T/2, T) for T = NextPow2(N), and x[0] is "the final element
// to be initialized and used as the algorithm termination sentinel".
// Writing 1 into an interior cell simultaneously initializes that array
// element and marks its subtree done, so a leaf visit costs one cycle
// instead of X's two. The only extra shared state is the w position
// array. The asymptotic behaviour is X's.
//
// Cells at heap positions >= N (possible when N is not a power of two)
// are treated as virtually done.
type XInPlace struct {
	arrayDone
}

// NewXInPlace returns the Remark 7 in-place variant of algorithm X.
func NewXInPlace() *XInPlace { return &XInPlace{} }

// Name implements pram.Algorithm.
func (x *XInPlace) Name() string { return "X-inplace" }

// MemorySize implements pram.Algorithm: the array plus the w positions.
func (x *XInPlace) MemorySize(n, p int) int { return n + p }

// Setup implements pram.Algorithm.
func (x *XInPlace) Setup(mem *pram.Memory, n, p int) {}

// NewProcessor implements pram.Algorithm.
func (x *XInPlace) NewProcessor(pid, n, p int) pram.Processor {
	t := NextPow2(n)
	leaves := t / 2
	if leaves == 0 {
		leaves = 1
	}
	return &xInPlaceProc{pid: pid, n: n, p: p, t: t, leaves: leaves}
}

var _ pram.Algorithm = (*XInPlace)(nil)

type xInPlaceProc struct {
	pid, n, p int
	t         int // NextPow2(N); heap nodes live in cells [1, t)
	leaves    int // first leaf node (t/2, min 1)
}

// Reset implements pram.Resettable, matching XInPlace.NewProcessor.
func (x *xInPlaceProc) Reset(pid, n, p int) {
	t := NextPow2(n)
	leaves := t / 2
	if leaves == 0 {
		leaves = 1
	}
	*x = xInPlaceProc{pid: pid, n: n, p: p, t: t, leaves: leaves}
}

// wAddr returns the processor's position cell.
func (x *xInPlaceProc) wAddr() int { return x.n + x.pid }

// done interprets cell v as a heap done-bit; nodes beyond the array are
// virtually done.
func (x *xInPlaceProc) nodeDone(ctx *pram.Ctx, v int) bool {
	if v >= x.n {
		return true
	}
	return ctx.Read(v) != 0
}

// Cycle implements pram.Processor.
func (x *xInPlaceProc) Cycle(ctx *pram.Ctx) pram.Status {
	if ctx.Stable() == xActionInit {
		if x.n == 1 {
			// Degenerate array: go straight to the sentinel stage.
			ctx.Write(x.wAddr(), 0)
			ctx.SetStable(xActionLoop)
			return pram.Continue
		}
		leaf := x.leaves + x.pid%x.leaves
		ctx.Write(x.wAddr(), pram.Word(leaf))
		ctx.SetStable(xActionLoop)
		return pram.Continue
	}

	where := int(ctx.Read(x.wAddr()))
	if where == 0 {
		// Sentinel stage: initialize x[0], then exit.
		if ctx.Read(0) == 0 {
			ctx.Write(0, 1)
			return pram.Continue
		}
		return pram.Halt
	}
	switch {
	case where >= x.n:
		// Virtual padding node: done by definition; move up.
		ctx.Write(x.wAddr(), pram.Word(where/2))
	case ctx.Read(where) != 0:
		// Subtree done (and, in place, the cell is initialized).
		ctx.Write(x.wAddr(), pram.Word(where/2))
	case where >= x.leaves:
		// Leaf: one write both initializes the element and marks it.
		ctx.Write(where, 1)
	default:
		lDone := x.nodeDone(ctx, 2*where)
		rDone := x.nodeDone(ctx, 2*where+1)
		switch {
		case lDone && rDone:
			ctx.Write(where, 1) // initializes and marks the interior cell
		case lDone:
			ctx.Write(x.wAddr(), pram.Word(2*where+1))
		case rDone:
			ctx.Write(x.wAddr(), pram.Word(2*where))
		default:
			depth := 0
			for 1<<uint(depth+1) <= where {
				depth++
			}
			levels := 0
			for 1<<uint(levels) < x.leaves {
				levels++
			}
			bit := 0
			if depth < levels {
				bit = (x.pid >> uint(levels-1-depth)) & 1
			}
			ctx.Write(x.wAddr(), pram.Word(2*where+bit))
		}
	}
	return pram.Continue
}

// SnapshotState implements pram.Snapshotter: like xProc, all mutable
// state is in shared memory and the stable counter.
func (x *xInPlaceProc) SnapshotState() []pram.Word { return nil }

// RestoreState implements pram.Snapshotter.
func (x *xInPlaceProc) RestoreState(state []pram.Word) error {
	if len(state) != 0 {
		return pram.StateLenError("writeall: X-inplace processor", len(state), 0)
	}
	return nil
}

var _ pram.Processor = (*xInPlaceProc)(nil)
var _ pram.Snapshotter = (*xInPlaceProc)(nil)
