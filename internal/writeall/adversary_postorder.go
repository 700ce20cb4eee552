package writeall

import (
	"math/bits"

	"repro/internal/pram"
)

// PostOrder is the Theorem 4.8 adversary against algorithm X with P = N.
// Processor 0 (whose PID bits always steer left) is allowed to traverse
// the progress tree in post order, visiting the leaves left to right.
// Every other processor is failed the moment it reaches an unvisited leaf
// other than processor 0's; processors parked at processor 0's current
// leaf are restarted (so they complete the leaf together and scatter
// again), and processors with PIDs smaller than the index of the last leaf
// processor 0 visited are re-released once their parking leaf is done.
// The repeated scatter-and-park traffic is all charged completed work, and
// the paper shows a pattern of this shape forces S = Omega(N^{log 3}).
//
// Most processors spend the run parked, so Decide does not rescan them:
// it keeps the dead processors indexed by the node their w cell holds
// (see parkIndex), and costs O(alive + state changes + the tick's
// writes) plus a scan of one bit per processor.
type PostOrder struct {
	lay      TreeLayout
	lastLeaf int // largest array element index processor 0 has reached

	ix       parkIndex
	fails    []pram.Failure
	restarts []int
}

// NewPostOrder returns the Theorem 4.8 adversary for an algorithm using
// the given tree layout (use X.Layout(n, p)).
func NewPostOrder(lay TreeLayout) *PostOrder {
	return &PostOrder{lay: lay, lastLeaf: -1}
}

// Name implements pram.Adversary.
func (a *PostOrder) Name() string { return "postorder" }

// Decide implements pram.Adversary.
func (a *PostOrder) Decide(v *pram.View) pram.Decision {
	l := a.lay
	pos0 := int(v.Mem.Load(l.W(0)))
	if pos0 != 0 && l.IsLeaf(pos0) {
		if e := l.Element(pos0); e > a.lastLeaf {
			a.lastLeaf = e
		}
	}
	if cap(a.restarts) < v.P {
		// Each list holds a PID at most once: sized once, never grown.
		a.fails, a.restarts = make([]pram.Failure, 0, v.P), make([]int, 0, v.P)
	}
	a.ix.sync(v, l)
	if a.ix.wild > 0 {
		// Some parked processor's w cell holds no tree node, so its
		// d cell is not indexed.
		return a.scan(v, pos0)
	}

	// Park: fail a processor arriving at an unvisited leaf that
	// processor 0 is not working on.
	a.fails = a.fails[:0]
	for pid := v.States.NextAlive(1); pid >= 0; pid = v.States.NextAlive(pid + 1) {
		pos := int(v.Mem.Load(l.W(pid)))
		if pos != 0 && pos != pos0 && l.IsLeaf(pos) && v.Mem.Load(l.D(pos)) == 0 {
			a.fails = append(a.fails, pram.Failure{PID: pid, Point: pram.FailBeforeReads})
		}
	}
	// Restart the processors parked at processor 0's node, and the
	// small-PID processors whose parking node is finished, in PID order.
	a.restarts = a.restarts[:0]
	ix := &a.ix
	if pos0 >= 0 && pos0 < len(ix.head) {
		for pid := ix.head[pos0]; pid >= 0; pid = ix.next[pid] {
			ix.pick[pid>>6] |= 1 << (pid & 63)
		}
	}
	lim := min(max(a.lastLeaf, 0), v.P) // restart ready PIDs below lim
	for i, w := range ix.pick {
		if lo := i << 6; lo < lim {
			r := ix.ready[i]
			if lim-lo < 64 {
				r &= 1<<(lim-lo) - 1
			}
			w |= r
		}
		ix.pick[i] = 0
		for ; w != 0; w &= w - 1 {
			a.restarts = append(a.restarts, i<<6|bits.TrailingZeros64(w))
		}
	}
	return pram.Decision{Failures: a.fails, Restarts: a.restarts}
}

// scan decides by visiting every processor: the definition the index
// must agree with.
func (a *PostOrder) scan(v *pram.View, pos0 int) pram.Decision {
	l := a.lay
	a.fails, a.restarts = a.fails[:0], a.restarts[:0]
	for pid := 1; pid < v.States.Len(); pid++ {
		pos := int(v.Mem.Load(l.W(pid)))
		switch v.States.At(pid) {
		case pram.Alive:
			if pos != 0 && pos != pos0 && l.IsLeaf(pos) && v.Mem.Load(l.D(pos)) == 0 {
				a.fails = append(a.fails, pram.Failure{PID: pid, Point: pram.FailBeforeReads})
			}
		case pram.Dead:
			if pos == pos0 || (pid < a.lastLeaf && (pos == 0 || v.Mem.Load(l.D(pos)) != 0)) {
				a.restarts = append(a.restarts, pid)
			}
		}
	}
	return pram.Decision{Failures: a.fails, Restarts: a.restarts}
}

// parkIndex holds PostOrder's dead processors (PID 0 aside) bucketed by
// the node their w cell held when last read: a doubly linked list per
// node in [0, 2·TreeN), plus a bitset of the ones whose node is 0 or
// done. It stays exact by re-reading, at each Decide, the w cell of
// every PID whose state changed and every w and d cell the previous
// tick's intents wrote — whatever algorithm wrote them. A w cell
// holding no tree node makes its PID wild (counted, not bucketed).
type parkIndex struct {
	valid    bool
	lastTick int

	node       []int // per PID: the w value read, while indexed
	next, prev []int // per PID: bucket links, -1 terminated
	head       []int // per node: first PID in its bucket, or -1
	indexed    []uint64
	ready      []uint64 // indexed PIDs whose node is 0 or done
	pick       []uint64 // scratch for Decide's restart set
	wild       int

	written []int // w and d cells the previous tick's intents wrote
}

// sync brings the index up to date with v, rebuilding it from the
// states when v asks for a resync or Decide calls were skipped, and
// notes the cells this tick's intents may write.
func (ix *parkIndex) sync(v *pram.View, l TreeLayout) {
	if v.Resync || !ix.valid || v.Tick != ix.lastTick+1 || len(ix.node) != v.P {
		ix.rebuild(v, l)
	} else {
		w0 := l.W(0)
		for _, addr := range ix.written {
			if addr >= w0 {
				if pid := addr - w0; ix.has(pid) {
					ix.remove(pid)
					ix.insert(pid, v, l)
				}
				continue
			}
			node := addr - l.Base + 1
			done := v.Mem.Load(addr) != 0
			for pid := ix.head[node]; pid >= 0; pid = ix.next[pid] {
				ix.setReady(pid, done)
			}
		}
		for _, pid := range v.Changed {
			if ix.has(pid) {
				ix.remove(pid)
			}
			if pid != 0 && v.States.At(pid) == pram.Dead {
				ix.insert(pid, v, l)
			}
		}
	}
	ix.valid, ix.lastTick = true, v.Tick

	ix.written = ix.written[:0]
	lo, hi := l.Base, l.W(0)+v.P
	for pid := v.States.NextAlive(0); pid >= 0; pid = v.States.NextAlive(pid + 1) {
		if in := v.Intents[pid]; in != nil {
			for _, w := range in.Writes {
				if w.Addr >= lo && w.Addr < hi {
					ix.written = append(ix.written, w.Addr)
				}
			}
		}
	}
}

func (ix *parkIndex) rebuild(v *pram.View, l TreeLayout) {
	p, words := v.P, (v.P+63)/64
	ix.node = zeroed(ix.node, p)
	ix.next = zeroed(ix.next, p)
	ix.prev = zeroed(ix.prev, p)
	ix.head = zeroed(ix.head, 2*l.TreeN)
	for i := range ix.head {
		ix.head[i] = -1
	}
	ix.indexed = zeroed(ix.indexed, words)
	ix.ready = zeroed(ix.ready, words)
	ix.pick = zeroed(ix.pick, words)
	ix.wild = 0
	for pid := v.States.NextDead(1); pid >= 0; pid = v.States.NextDead(pid + 1) {
		ix.insert(pid, v, l)
	}
}

func (ix *parkIndex) has(pid int) bool { return ix.indexed[pid>>6]&(1<<(pid&63)) != 0 }

func (ix *parkIndex) setReady(pid int, ready bool) {
	if ready {
		ix.ready[pid>>6] |= 1 << (pid & 63)
	} else {
		ix.ready[pid>>6] &^= 1 << (pid & 63)
	}
}

// insert indexes dead PID pid under the node its w cell holds now.
func (ix *parkIndex) insert(pid int, v *pram.View, l TreeLayout) {
	pos := int(v.Mem.Load(l.W(pid)))
	ix.node[pid] = pos
	ix.indexed[pid>>6] |= 1 << (pid & 63)
	if pos < 0 || pos >= len(ix.head) {
		ix.wild++
		return
	}
	ix.prev[pid], ix.next[pid] = -1, ix.head[pos]
	if h := ix.head[pos]; h >= 0 {
		ix.prev[h] = pid
	}
	ix.head[pos] = pid
	ix.setReady(pid, pos == 0 || v.Mem.Load(l.D(pos)) != 0)
}

func (ix *parkIndex) remove(pid int) {
	ix.indexed[pid>>6] &^= 1 << (pid & 63)
	ix.setReady(pid, false)
	pos := ix.node[pid]
	if pos < 0 || pos >= len(ix.head) {
		ix.wild--
		return
	}
	if p := ix.prev[pid]; p >= 0 {
		ix.next[p] = ix.next[pid]
	} else {
		ix.head[pos] = ix.next[pid]
	}
	if n := ix.next[pid]; n >= 0 {
		ix.prev[n] = ix.prev[pid]
	}
}

// zeroed returns a zeroed slice of length n, reusing s when it can.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// SnapshotState implements pram.Snapshotter: the traversal watermark is
// the adversary's only cross-tick state (the index is rebuilt on
// resume).
func (a *PostOrder) SnapshotState() []pram.Word { return []pram.Word{pram.Word(a.lastLeaf)} }

// RestoreState implements pram.Snapshotter.
func (a *PostOrder) RestoreState(state []pram.Word) error {
	if len(state) != 1 {
		return pram.StateLenError("writeall: postorder adversary", len(state), 1)
	}
	a.lastLeaf = int(state[0])
	return nil
}

var _ pram.Adversary = (*PostOrder)(nil)
var _ pram.Snapshotter = (*PostOrder)(nil)
