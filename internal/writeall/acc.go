package writeall

import (
	"math/rand"

	"repro/internal/pram"
	"repro/internal/rng"
)

// ACC is a randomized coupon-clipping Write-All algorithm standing in for
// the asynchronous coupon clipping algorithm of [MSP 90] analyzed in the
// paper's Section 5. The original's full text is not available, so this
// implementation preserves the structure Section 5's stalking adversary
// exploits: processors walk a binary progress tree over the array (the
// same layout as algorithm X) and "clip coupons" at the leaves, choosing
// uniformly at random between two unfinished subtrees.
//
// Unlike X, a processor's position is private: the [MSP 90] algorithm is
// asynchronous and a failed processor loses its place, so a restarted
// processor re-enters at the root after a random delay (the delay models
// the asynchronous scheduling slack of the original; without it the
// synchronous simulator would move all restarted processors in lock step).
//
// Against off-line (non-adaptive) adversaries the random choices balance
// the processors and the expected work is modest; against the on-line
// stalking adversary of Section 5 the expected work blows up.
type ACC struct {
	arrayDone

	seed    int64
	spawned int64 // restarts get fresh random streams
}

// NewACC returns the randomized coupon-clipping algorithm with the given
// seed (runs are reproducible for a fixed seed and adversary).
func NewACC(seed int64) *ACC { return &ACC{seed: seed} }

// Name implements pram.Algorithm.
func (a *ACC) Name() string { return "ACC" }

// Layout returns ACC's tree layout (identical to X's, which lets the
// stalking adversary target a leaf the same way). The w region is unused
// because positions are private.
func (a *ACC) Layout(n, p int) TreeLayout { return NewTreeLayout(n, p, n) }

// MemorySize implements pram.Algorithm.
func (a *ACC) MemorySize(n, p int) int {
	l := a.Layout(n, p)
	return l.Base + l.Size()
}

// Setup implements pram.Algorithm.
func (a *ACC) Setup(mem *pram.Memory, n, p int) {
	a.Layout(n, p).SetupTree(mem.Store)
}

// NewProcessor implements pram.Algorithm. Each (re)incarnation draws a
// distinct deterministic random stream and starts at the root after a
// random delay of up to the tree depth. The stream runs over a counting
// source (bit-identical to the plain math/rand source it replaces) so a
// snapshot can capture it as (seed, draws).
func (a *ACC) NewProcessor(pid, n, p int) pram.Processor {
	a.spawned++
	streamSeed := a.seed ^ int64(pid)<<20 ^ a.spawned*0x5851F42D4C957F2D
	lay := a.Layout(n, p)
	src := rng.NewCounting(streamSeed)
	r := rand.New(src)
	delay := 0
	if lay.Levels > 0 {
		delay = r.Intn(lay.Levels + 1)
	}
	return &accProc{pid: pid, lay: lay, src: src, rng: r, delay: delay, pos: 1}
}

// SnapshotState implements pram.Snapshotter: the incarnation counter
// the per-restart stream seeds derive from is ACC's only run state.
func (a *ACC) SnapshotState() []pram.Word { return []pram.Word{pram.Word(a.spawned)} }

// RestoreState implements pram.Snapshotter. It runs after the machine
// has (re)built the live processors, undoing the spawned increments
// their construction performed, so post-restore restarts continue the
// snapshotted run's seed sequence exactly. It also accepts the
// two-word [done cursor, spawned] state that checkpoints written
// before ACC dropped its done cursor carry.
func (a *ACC) RestoreState(state []pram.Word) error {
	switch len(state) {
	case 1, 2:
		a.spawned = int64(state[len(state)-1])
		return nil
	}
	return pram.StateLenError("writeall: ACC", len(state), 1)
}

var _ pram.Algorithm = (*ACC)(nil)
var _ pram.Snapshotter = (*ACC)(nil)

// accProc is a coupon-clipping processor: private position, random
// descent. All of its state is lost on failure.
type accProc struct {
	pid   int
	lay   TreeLayout
	src   *rng.Counting
	rng   *rand.Rand
	delay int
	pos   int // current heap node; 0 after leaving the root
}

// Cycle implements pram.Processor.
func (a *accProc) Cycle(ctx *pram.Ctx) pram.Status {
	l := a.lay
	if a.delay > 0 {
		// Asynchronous slack: an idle (but completed and charged)
		// cycle.
		a.delay--
		return pram.Continue
	}
	if a.pos == 0 {
		return pram.Halt
	}
	switch {
	case ctx.Read(l.D(a.pos)) != 0:
		a.pos /= 2 // subtree finished: move up
	case l.IsLeaf(a.pos):
		elem := l.Element(a.pos)
		if ctx.Read(elem) == 0 {
			ctx.Write(elem, 1) // clip the coupon
		} else {
			ctx.Write(l.D(a.pos), 1) // mark it clipped
		}
	default:
		left := ctx.Read(l.D(2 * a.pos))
		right := ctx.Read(l.D(2*a.pos + 1))
		switch {
		case left != 0 && right != 0:
			ctx.Write(l.D(a.pos), 1)
		case right != 0:
			a.pos = 2 * a.pos
		case left != 0:
			a.pos = 2*a.pos + 1
		default:
			a.pos = 2*a.pos + a.rng.Intn(2)
		}
	}
	return pram.Continue
}

// SnapshotState implements pram.Snapshotter: the walk state plus the
// random stream as (seed, draws).
func (a *accProc) SnapshotState() []pram.Word {
	seed, draws := a.src.State()
	return []pram.Word{pram.Word(a.delay), pram.Word(a.pos), pram.Word(seed), pram.Word(draws)}
}

// RestoreState implements pram.Snapshotter: it rewinds the stream to
// the captured (seed, draws) point, discarding whatever the fresh
// incarnation's constructor drew.
func (a *accProc) RestoreState(state []pram.Word) error {
	if len(state) != 4 {
		return pram.StateLenError("writeall: ACC processor", len(state), 4)
	}
	a.delay = int(state[0])
	a.pos = int(state[1])
	a.src.Restore(int64(state[2]), uint64(state[3]))
	return nil
}

var _ pram.Processor = (*accProc)(nil)
var _ pram.Snapshotter = (*accProc)(nil)
