package pram

import (
	"fmt"
	"math/bits"

	"repro/internal/faultinject"
)

// Quiescence is an optional Adversary interface that lets the machine
// amortize per-tick bookkeeping over failure-free stretches.
// QuiescentFor(tick) returns a lower bound on how many consecutive
// ticks, starting at tick, Decide would return an empty Decision AND
// consume no adversary-private state (no random draws, no counters) —
// so the machine may skip calling Decide entirely for that many ticks
// without the omission being observable, even through Snapshotter.
// Returning 0 makes TickBatch fall back to per-tick stepping, which is
// always safe; over-reporting breaks run equivalence.
type Quiescence interface {
	QuiescentFor(tick int) int
}

// BatchEvent summarizes one quiet window committed by TickBatch: Ticks
// ticks advanced from FromTick with a single round of bookkeeping.
type BatchEvent struct {
	// FromTick is the window's first tick; the window covers
	// [FromTick, FromTick+Ticks).
	FromTick int
	// Ticks is how many ticks the window advanced.
	Ticks int
	// Alive is the number of processors that executed cycles in the
	// window.
	Alive int
	// Completed is the number of update cycles completed in the window.
	Completed int64
}

// BatchSink is an optional Sink extension for batched runs: a sink that
// implements it receives one BatchDone per quiet window instead of the
// per-tick TickDone/CycleDone stream for the window's ticks (events
// outside quiet windows are delivered normally). A machine whose sink
// does not implement BatchSink never takes the quiet-window fast path,
// so plain sinks keep their exact per-tick event stream.
type BatchSink interface {
	Sink
	BatchDone(BatchEvent)
}

// BatchCycler is an optional Processor interface for the TickBatch fast
// path: CycleBatch runs up to k consecutive update cycles in one call,
// returning how many cycles it ran (the final, halting cycle included)
// and Continue or Halt. The machine only invokes it inside a quiet
// window — no failures, no restarts — and commits writes
// immediately rather than buffering them, so an implementation must be
// oblivious over the window for equivalence to hold: its reads must not
// depend on other processors' window writes, its writes must not
// conflict with theirs, and only its final SetStable value may matter.
// Every in-tree Write-All worker satisfies this trivially (disjoint
// write sets, no reads). Per-cycle read/write budgets are asserted via
// BatchCtx.Charge instead of being counted per operation.
type BatchCycler interface {
	Processor
	CycleBatch(b *BatchCtx, k int) (ran int, st Status)
}

// BatchCtx carries one processor's access to the machine during a
// CycleBatch call. Unlike Ctx, reads see writes already committed in
// this window (harmless by the obliviousness contract) and writes
// commit through the machine's store path, so the done-hint counter
// stays exact. FillStride calls are the one deferred commit: they
// coalesce across processors into a pending stripe, which is committed
// before anything could observe memory (see FillStride).
type BatchCtx struct {
	m *Machine

	stable    Word
	newStable Word
	stableSet bool

	maxReads  int
	maxWrites int

	stripe stripe
	// stripes counts committed stripes, so tests can pin that a
	// failure-free window coalesces into one.
	stripes int
}

// stripe is a pending run of coalesced FillStride calls: rows
// [row, row+count) by columns [lo, hi) of memory viewed as rows of
// stride cells, i.e. the cells r·stride+c. count == 0 means empty.
type stripe struct {
	stride, row, count, lo, hi int
}

// Stable returns the stable action counter as of the window start.
func (b *BatchCtx) Stable() Word { return b.stable }

// SetStable records the stable counter value to commit at the window
// end. Intermediate values are unobservable in a quiet window (nothing
// can fail), so only the last call matters.
func (b *BatchCtx) SetStable(v Word) {
	b.newStable = v
	b.stableSet = true
}

// Read returns the current value of shared cell addr.
func (b *BatchCtx) Read(addr int) Word {
	b.flush()
	return b.m.mem.Load(addr)
}

// Write commits a write of v to shared cell addr immediately.
func (b *BatchCtx) Write(addr int, v Word) {
	b.flush()
	b.m.store(addr, v)
}

// FillOnes sets every cell in [start, end) to 1 — the batched form of
// the Write-All assignment. The packed prefix is filled a word per op
// (64 cells per OR) and the done-hint counter is decremented once per
// word by the popcount of the cells that actually flipped, not once per
// cell; unpacked cells go through the ordinary store path.
func (b *BatchCtx) FillOnes(start, end int) {
	m := b.m
	if start < 0 || end > m.mem.Size() || start > end {
		panic(fmt.Sprintf("pram: FillOnes [%d,%d) out of range (memory size %d)", start, end, m.mem.Size()))
	}
	b.flush()
	m.fillOnes(start, end)
}

// FillStride sets cells first + j·stride, j < count, to 1 — the batched
// form of a strided Write-All assignment such as the trivial
// algorithm's. Consecutive calls with the same stride, start row
// (first/stride) and count, each starting at the column (first%stride)
// after the last, coalesce into one pending stripe. Processors run in
// PID order, so the strides of a failure-free window tile whole rows
// and commit as a single FillOnes, 64 cells per word op; any other
// stripe commits as one short fill per row. The stripe is committed
// before the next Read, Write or FillOnes and when the window's
// processor loop ends, so reads, the done hint and everything after the
// loop see exactly what per-cell writes would have left.
func (b *BatchCtx) FillStride(first, stride, count int) {
	size := b.m.mem.Size()
	if first < 0 || stride < 1 || count < 0 ||
		count > 0 && (first >= size || count-1 > (size-1-first)/stride) {
		panic(fmt.Sprintf("pram: FillStride(%d, %d, %d) out of range (memory size %d)", first, stride, count, size))
	}
	if count == 0 {
		return
	}
	row, col := first/stride, first%stride
	s := &b.stripe
	if s.count == count && s.stride == stride && s.row == row && s.hi == col {
		s.hi++
		return
	}
	b.flush()
	*s = stripe{stride: stride, row: row, count: count, lo: col, hi: col + 1}
}

// flush commits the pending stripe, if any: whole rows as one
// contiguous fill, a partial column range as one fill per row.
func (b *BatchCtx) flush() {
	s := &b.stripe
	if s.count == 0 {
		return
	}
	if s.lo == 0 && s.hi == s.stride {
		b.m.fillOnes(s.row*s.stride, (s.row+s.count)*s.stride)
	} else {
		for r := s.row; r < s.row+s.count; r++ {
			b.m.fillOnes(r*s.stride+s.lo, r*s.stride+s.hi)
		}
	}
	*s = stripe{}
	b.stripes++
}

// fillOnes commits 1 to every cell in [start, end), which the caller
// guarantees lies in memory, keeping the done-hint counter exact.
func (m *Machine) fillOnes(start, end int) {
	if pl := m.mem.PackedLen(); start < pl {
		pe := min(end, pl)
		if hl := m.hintLen; start < hl {
			he := min(pe, hl)
			m.remaining -= m.mem.fillOnesPacked(start, he)
			start = he
		}
		if start < pe {
			m.mem.fillOnesPacked(start, pe)
			start = pe
		}
	}
	for ; start < end; start++ {
		m.store(start, 1)
	}
}

// Charge declares the per-cycle shared-access cost of the batched
// cycles: at most reads reads and writes writes in any single cycle of
// this call. The machine folds the maxima into the metrics and enforces
// the Section 2.1 cycle budgets against them, exactly as validateCycle
// does for counted per-tick cycles.
func (b *BatchCtx) Charge(reads, writes int) {
	if reads > b.maxReads {
		b.maxReads = reads
	}
	if writes > b.maxWrites {
		b.maxWrites = writes
	}
}

// TickBatch advances the machine by up to k ticks with amortized
// bookkeeping: stretches where the adversary is provably quiescent (see
// Quiescence) execute as quiet windows — each processor runs its cycles
// back-to-back via CycleBatch and the machine does one round of Done
// hinting, metrics, sink events, and observability for the whole window
// — and every other tick falls back to a plain Step the moment a
// failure or restart could fire. It returns how many ticks actually ran
// (less than k when the run completes or errors mid-batch), the Step
// done flag, and the Step error. A TickBatch-driven run is tick-for-
// tick equivalent to a Step loop in metrics, memory, and snapshots; the
// property tests hold it to that.
func (m *Machine) TickBatch(k int) (ran int, done bool, err error) {
	start := m.tick
	for m.tick-start < k {
		if w := m.quietWindow(k - (m.tick - start)); w > 1 {
			done, err = m.runQuietWindow(w)
		} else {
			done, err = m.Step()
		}
		if done || err != nil {
			break
		}
	}
	return m.tick - start, done, err
}

// quietWindow returns the number of ticks (>= 2) the machine may safely
// advance as one quiet window, or 0 to fall back to Step. The window
// must be invisible: the adversary quiescent and stateless over it, no
// per-tick sink (unless it opts in via BatchSink), no fault injection
// armed, the done hint active (the guard below needs the remaining
// counter), and every alive processor a BatchCycler, whose
// disjoint-writes contract makes COMMON's conflict check vacuous. The window is further capped so the
// Done predicate cannot become true strictly inside it: each tick
// clears at most alive*MaxWritesPerCycle hinted cells, so completion is
// only reachable at the window's final tick, where it is checked.
func (m *Machine) quietWindow(maxW int) int {
	if maxW < 2 {
		// A one-tick batch is a plain Step: no quiescence probing.
		return 0
	}
	if m.ended || m.hintLen == 0 || m.remaining == 0 {
		return 0
	}
	if m.sink != nil {
		if _, ok := m.sink.(BatchSink); !ok {
			return 0
		}
	}
	if m.fiCycle.Mode() != faultinject.Off {
		return 0
	}
	q, ok := m.adv.(Quiescence)
	if !ok {
		return 0
	}
	w := maxW
	if lim := m.cfg.MaxTicks - m.tick; lim < w {
		w = lim
	}
	if quiet := q.QuiescentFor(m.tick); quiet < w {
		w = quiet
	}
	if w < 2 {
		return 0
	}
	alive := m.ps.nAlive
	if alive == 0 {
		return 0
	}
	for i, bw := range m.ps.alive {
		for ; bw != 0; bw &= bw - 1 {
			if _, ok := m.slots[i<<6|bits.TrailingZeros64(bw)].proc.(BatchCycler); !ok {
				return 0
			}
		}
	}
	if dist := (m.remaining-1)/(alive*MaxWritesPerCycle) + 1; dist < w {
		w = dist
	}
	if w < 2 {
		return 0
	}
	return w
}

// runQuietWindow advances the machine w ticks as one committed window:
// every alive processor runs up to w cycles through CycleBatch in PID
// order, then the machine does one round of bookkeeping. Processors that
// halt mid-window stop contributing cycles; if every processor halts,
// the clock stops at the last halting cycle's tick, exactly as a Step
// loop would leave it.
func (m *Machine) runQuietWindow(w int) (bool, error) {
	m.fresh = false
	before := m.metrics
	fromTick := m.tick
	alive, maxRan := 0, 0
	anyAlive := false
	b := &m.bctx
	b.m = m
	// A CycleBatch panic that a caller recovered from may have left a
	// stripe pending on this pooled machine; it must not commit here.
	b.stripe = stripe{}
	for i, bw := range m.ps.alive {
		for ; bw != 0; bw &= bw - 1 {
			pid := i<<6 | bits.TrailingZeros64(bw)
			s := &m.slots[pid]
			alive++
			b.stable = s.stable
			b.newStable = 0
			b.stableSet = false
			b.maxReads, b.maxWrites = 0, 0
			ran, st := s.proc.(BatchCycler).CycleBatch(b, w)
			if ran < 0 {
				ran = 0
			}
			if ran > w {
				ran = w
			}
			if err := m.validateBatch(pid); err != nil {
				b.flush()
				return false, m.fail(err)
			}
			m.metrics.Completed += int64(ran)
			if b.stableSet {
				s.stable = b.newStable
			}
			if st == Halt {
				m.setState(pid, Halted)
			} else {
				anyAlive = true
			}
			if ran > maxRan {
				maxRan = ran
			}
		}
	}
	b.flush()
	end := w
	if !anyAlive {
		end = maxRan
	}
	m.tick = fromTick + end
	m.metrics.Ticks = m.tick
	if bs, ok := m.sink.(BatchSink); ok {
		bs.BatchDone(BatchEvent{
			FromTick:  fromTick,
			Ticks:     end,
			Alive:     alive,
			Completed: m.metrics.Completed - before.Completed,
		})
	}
	m.obsBatch(end, before)
	if m.isDone() {
		m.emitRunDone(nil)
		return true, nil
	}
	if m.allHalted() {
		return false, m.fail(fmt.Errorf("%w (algorithm=%s)", ErrAllHalted, m.alg.Name()))
	}
	return false, nil
}

// validateBatch enforces the cycle budgets against the per-cycle maxima
// a CycleBatch call declared through Charge, folding them into the
// metrics exactly as validateCycle does for counted cycles.
func (m *Machine) validateBatch(pid int) error {
	b := &m.bctx
	if b.maxReads > m.metrics.MaxReads {
		m.metrics.MaxReads = b.maxReads
	}
	if b.maxWrites > m.metrics.MaxWrites {
		m.metrics.MaxWrites = b.maxWrites
	}
	if b.maxReads > m.readBudget || b.maxWrites > MaxWritesPerCycle {
		return fmt.Errorf("%w (algorithm=%s, pid=%d, reads=%d, writes=%d)",
			ErrCycleLimit, m.alg.Name(), pid, b.maxReads, b.maxWrites)
	}
	return nil
}
