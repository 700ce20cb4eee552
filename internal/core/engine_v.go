package core

import "repro/internal/pram"

// This file adds the algorithm-V side of the Theorem 4.1 construction to
// the executor. The paper's simulation interleaves V and X (Theorem 4.9):
// V contributes the work-optimal O(N + P log^2 N + M log N) bound that
// Corollary 4.12 needs, X contributes guaranteed termination. The combined
// executor processor runs the V engine on even ticks and the X engine on
// odd ticks, over one shared phase counter, scratch area and simulated
// memory but separate progress trees.
//
// Like everything else in the executor, V's progress values are stamped
// with the phase number (enc(phase, count)) so no clearing is needed
// between phases; V's iteration clock is anchored at the shared phaseStart
// cell, written together with every phase advance, which replaces the
// stand-alone algorithm's wrap-around counter.

// execVProc is a phase-stamped algorithm-V processor for the executor. Its
// private iteration state is rebuilt from shared memory every phase and
// abandoned on any failure (a restarted processor waits for the next
// iteration boundary, as in stand-alone V).
type execVProc struct {
	pid  int
	prog Program
	lay  layout
	port simPort

	phase  pram.Word // the phase the private state below belongs to
	joined bool
	pos    int // current block-tree node
	target int // index among unvisited blocks (allocation phase)
	block  int // allocated leaf block
}

// Cycle implements pram.Processor for the V engine. ticksPerSlot is 2 when
// interleaved with X (V acts every other tick) and 1 when running alone.
func (e *execVProc) cycle(ctx *pram.Ctx, ticksPerSlot int) pram.Status {
	l := &e.lay
	v := l.vtree

	phi := ctx.Read(l.phase)
	if phi > pram.Word(2*e.prog.Steps()) {
		return pram.Halt
	}
	start := int(ctx.Read(l.start))
	if e.phase != phi {
		// New phase (or fresh processor): wait for the next iteration
		// boundary.
		e.phase = phi
		e.joined = false
	}
	vt := (ctx.Tick() - start) / ticksPerSlot
	iterLen := 2*l.vLb + l.vBS + 1
	o := vt % iterLen

	if !e.joined {
		if o != 0 {
			return pram.Continue // idle (charged) wait for wrap-around
		}
		e.joined = true
	}

	step := int(phi-1) / 2
	commit := (phi-1)%2 == 1

	if o == 0 {
		u := l.vBlocks - e.blocksDone(1, ctx.Read(v(1)), phi)
		if u <= 0 {
			// All blocks done in this phase: advance. (The X side may
			// advance first; the fresh phase read above prevents
			// double advances.)
			ctx.Write(l.phase, phi+1)
			ctx.Write(l.start, pram.Word(ctx.Tick()+1))
			return pram.Continue
		}
		e.target = e.pid % l.p * u / l.p
		e.pos = 1
		e.block = 0
	}

	switch {
	case o < l.vLb:
		// Allocation: descend one level, splitting by unvisited counts.
		left := 2 * e.pos
		ul := e.leavesUnder(left) - e.blocksDone(left, ctx.Read(v(left)), phi)
		if e.target < ul {
			e.pos = left
		} else {
			e.target -= ul
			e.pos = left + 1
		}
		if o == l.vLb-1 {
			e.block = e.pos - l.vBlocks
		}
	case o < l.vLb+l.vBS:
		// Work: one simulated element per cycle.
		elem := e.block*l.vBS + (o - l.vLb)
		if elem < l.n {
			e.elementWork(ctx, step, commit, elem)
		}
	case o == l.vLb+l.vBS:
		// Mark the block done for this phase; the processor performed
		// every element itself (late joiners wait out the iteration).
		// Padding blocks are counted arithmetically, never marked.
		e.pos = l.vBlocks + e.block
		if e.block < l.vRealBlocks {
			ctx.Write(v(e.pos), enc(phi, 1))
		}
	default:
		// Progress update: ascend, refreshing stamped counts.
		e.pos /= 2
		sum := e.stamped(ctx.Read(v(2*e.pos)), phi) + e.stamped(ctx.Read(v(2*e.pos+1)), phi)
		ctx.Write(v(e.pos), enc(phi, sum))
	}
	return pram.Continue
}

// elementWork performs one simulated element's phase work: record the
// instruction's write (EXECUTE) or apply it (COMMIT). Idempotent under
// re-execution by any processor in the same phase.
func (e *execVProc) elementWork(ctx *pram.Ctx, step int, commit bool, i int) {
	l := &e.lay
	stamp := pram.Word(step + 1)
	a := ctx.Read(l.scrA(i))
	if !commit {
		if stampOf(a) == stamp {
			return // already recorded
		}
		addr, val := e.port.step(e.prog, ctx, l.simBase, step, i)
		if addr >= 0 {
			ctx.Write(l.scrV(i), val) // value before stamp; see leafWork
		}
		ctx.Write(l.scrA(i), enc(stamp, addr+1))
		return
	}
	if addr := valOf(a); addr > 0 {
		ctx.Write(l.simBase+addr-1, ctx.Read(l.scrV(i)))
	}
}

// stamped decodes a phase-stamped count, treating other phases' values as
// zero.
func (e *execVProc) stamped(w pram.Word, phi pram.Word) int {
	if stampOf(w) != phi {
		return 0
	}
	return valOf(w)
}

// leavesUnder returns the number of leaf blocks under block-tree node v.
func (e *execVProc) leavesUnder(v int) int {
	depth := 0
	for 1<<uint(depth+1) <= v {
		depth++
	}
	return e.lay.vBlocks >> uint(depth)
}

// blocksDone returns the number of done blocks under node v in phase phi:
// the stamped count plus the padding blocks (done by construction).
func (e *execVProc) blocksDone(v int, w pram.Word, phi pram.Word) int {
	return e.stamped(w, phi) + e.paddedUnder(v)
}

// SnapshotState implements pram.Snapshotter: the V side's private
// iteration state, which unlike the X engine's survives across ticks
// within an iteration.
func (e *execVProc) SnapshotState() []pram.Word {
	joined := pram.Word(0)
	if e.joined {
		joined = 1
	}
	return []pram.Word{e.phase, joined, pram.Word(e.pos), pram.Word(e.target), pram.Word(e.block)}
}

// RestoreState implements pram.Snapshotter.
func (e *execVProc) RestoreState(state []pram.Word) error {
	if len(state) != 5 {
		return pram.StateLenError("core: executor V processor", len(state), 5)
	}
	e.phase = state[0]
	e.joined = state[1] != 0
	e.pos = int(state[2])
	e.target = int(state[3])
	e.block = int(state[4])
	return nil
}

var _ pram.Snapshotter = (*execVProc)(nil)

// paddedUnder returns how many padding blocks (indices >= RealBlocks) lie
// under node v.
func (e *execVProc) paddedUnder(v int) int {
	// Blocks under v form the contiguous range [lo, lo+span).
	span := e.leavesUnder(v)
	node := v
	for node < e.lay.vBlocks {
		node <<= 1
	}
	lo := node - e.lay.vBlocks
	hi := lo + span
	if hi <= e.lay.vRealBlocks {
		return 0
	}
	if lo >= e.lay.vRealBlocks {
		return span
	}
	return hi - e.lay.vRealBlocks
}
