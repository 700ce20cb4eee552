package writeall

import "repro/internal/pram"

// XOptions selects the local optimizations of the paper's Remark 5, used
// by the ablation experiment E14. The worst-case analysis does not benefit
// from them, which is exactly what the ablation checks.
type XOptions struct {
	// EvenSpacing spreads the P initial processor positions TreeN/P
	// leaves apart instead of packing them on the first P leaves
	// (Remark 5(i)).
	EvenSpacing bool
	// CountProgress stores at every progress-tree node the number of
	// done leaves below it instead of a 0/1 done bit, and descends
	// toward the child with more remaining work (Remark 5(ii)).
	CountProgress bool
}

// X is the paper's algorithm X (Section 4.2 and Figure 5): every processor
// independently searches the smallest immediate subtree with remaining
// work, descending a progress heap by its PID bits at doubly-unfinished
// nodes, performs the leaf work, and moves out when a subtree finishes.
// Its completed work is O(N * P^{log 3/2 + eps}) for any failure/restart
// pattern (Theorem 4.7), and some pattern forces Omega(N^{log 3}) with
// P = N (Theorem 4.8).
type X struct {
	arrayDone

	opts XOptions
}

// NewX returns algorithm X with default options.
func NewX() *X { return &X{} }

// NewXWithOptions returns algorithm X with the given Remark 5 options.
func NewXWithOptions(opts XOptions) *X { return &X{opts: opts} }

// Name implements pram.Algorithm.
func (x *X) Name() string {
	switch {
	case x.opts.EvenSpacing && x.opts.CountProgress:
		return "X+spacing+counts"
	case x.opts.EvenSpacing:
		return "X+spacing"
	case x.opts.CountProgress:
		return "X+counts"
	default:
		return "X"
	}
}

// Layout returns X's shared-memory layout for the given parameters. The
// post-order adversary of Theorem 4.8 uses it to observe processor
// positions.
func (x *X) Layout(n, p int) TreeLayout { return NewTreeLayout(n, p, n) }

// MemorySize implements pram.Algorithm.
func (x *X) MemorySize(n, p int) int {
	l := x.Layout(n, p)
	return l.Base + l.Size()
}

// Setup implements pram.Algorithm.
func (x *X) Setup(mem *pram.Memory, n, p int) {
	l := x.Layout(n, p)
	if x.opts.CountProgress {
		l.SetupTreeCounts(mem.Store)
		return
	}
	l.SetupTree(mem.Store)
}

// NewProcessor implements pram.Algorithm.
func (x *X) NewProcessor(pid, n, p int) pram.Processor {
	return &xProc{pid: pid, lay: x.Layout(n, p), opts: x.opts}
}

var _ pram.Algorithm = (*X)(nil)

// xProc holds a processor's (empty) private state for algorithm X: the
// whole position lives in shared memory (w[PID]), and the stable action
// counter distinguishes the initialization action from the loop action,
// per the action/recovery construct of [SS 83] (the paper's Remark 6).
type xProc struct {
	pid  int
	lay  TreeLayout
	opts XOptions
}

// Stable action-counter values for X.
const (
	xActionInit pram.Word = 0
	xActionLoop pram.Word = 1
)

// Reset implements pram.Resettable. Processor options are per-instance
// algorithm configuration, and the machine recycles processors only for
// the same Algorithm value, so keeping opts matches X.NewProcessor. The
// layout is a pure function of (n, p), so it is kept when they match.
func (x *xProc) Reset(pid, n, p int) {
	lay := x.lay
	if lay.N != n || lay.P != p {
		lay = NewTreeLayout(n, p, n)
	}
	*x = xProc{pid: pid, lay: lay, opts: x.opts}
}

// Cycle implements pram.Processor. It is a direct transcription of the
// Figure 5 pseudocode; every branch performs at most four shared reads and
// one shared write, so the body is one update cycle.
func (x *xProc) Cycle(ctx *pram.Ctx) pram.Status {
	l := x.lay
	if ctx.Stable() == xActionInit {
		// action: w[PID] := the initial position (a leaf).
		leaf := x.initialLeaf()
		ctx.Write(l.W(x.pid), pram.Word(leaf))
		ctx.SetStable(xActionLoop)
		return pram.Continue
	}

	where := int(ctx.Read(l.W(x.pid)))
	if where == 0 {
		// Exited the tree: the algorithm has terminated for this
		// processor.
		return pram.Halt
	}
	dv := int(ctx.Read(l.D(where)))
	switch {
	case x.nodeDone(where, dv):
		// Move up one level.
		ctx.Write(l.W(x.pid), pram.Word(where/2))
	case l.IsLeaf(where):
		elem := l.Element(where)
		if ctx.Read(elem) == 0 {
			ctx.Write(elem, 1) // initialize leaf
		} else {
			ctx.Write(l.D(where), 1) // indicate "done"
		}
	default:
		left := int(ctx.Read(l.D(2 * where)))
		right := int(ctx.Read(l.D(2*where + 1)))
		if x.opts.CountProgress {
			x.countingInterior(ctx, where, dv, left, right)
			return pram.Continue
		}
		switch {
		case left != 0 && right != 0:
			ctx.Write(l.D(where), 1) // both children done
		case right != 0:
			ctx.Write(l.W(x.pid), pram.Word(2*where)) // go left
		case left != 0:
			ctx.Write(l.W(x.pid), pram.Word(2*where+1)) // go right
		default:
			// Both subtrees unfinished: descend according to the
			// PID bit at this depth.
			next := 2*where + l.PIDBit(x.pid, l.Depth(where))
			ctx.Write(l.W(x.pid), pram.Word(next))
		}
	}
	return pram.Continue
}

// countingInterior handles an interior node under the Remark 5(ii)
// variant, in which progress-tree nodes hold the known number of done
// descendant leaves. The processor first propagates a fresher count to the
// node if its children reveal one, and otherwise descends toward the child
// with more remaining work (ties broken by the PID bit).
func (x *xProc) countingInterior(ctx *pram.Ctx, where, dv, left, right int) {
	l := x.lay
	if left+right > dv {
		ctx.Write(l.D(where), pram.Word(left+right))
		return
	}
	half := x.leavesUnder(where) / 2
	remL, remR := half-left, half-right
	bit := 0
	switch {
	case remL < remR:
		bit = 1
	case remL == remR:
		bit = l.PIDBit(x.pid, l.Depth(where))
	}
	ctx.Write(l.W(x.pid), pram.Word(2*where+bit))
}

func (x *xProc) initialLeaf() int {
	l := x.lay
	if x.opts.EvenSpacing && l.P < l.TreeN {
		return l.Leaf(x.pid * (l.TreeN / l.P) % l.TreeN)
	}
	// First P leaves (Figure 5: "the initial positions").
	return l.Leaf(x.pid % l.TreeN)
}

// nodeDone interprets an already-read progress value for node v under the
// selected progress representation.
func (x *xProc) nodeDone(v, progress int) bool {
	if !x.opts.CountProgress || x.lay.IsLeaf(v) {
		return progress != 0
	}
	return progress >= x.leavesUnder(v)
}

func (x *xProc) leavesUnder(v int) int {
	return x.lay.TreeN >> uint(x.lay.Depth(v))
}

// SnapshotState implements pram.Snapshotter. An X processor has no
// mutable private state: its position lives in shared memory (w[PID])
// and its action phase in the stable counter, both captured by the
// machine itself.
func (x *xProc) SnapshotState() []pram.Word { return nil }

// RestoreState implements pram.Snapshotter.
func (x *xProc) RestoreState(state []pram.Word) error {
	if len(state) != 0 {
		return pram.StateLenError("writeall: X processor", len(state), 0)
	}
	return nil
}

var _ pram.Processor = (*xProc)(nil)
var _ pram.Snapshotter = (*xProc)(nil)
