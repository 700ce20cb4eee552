package writeall

import "repro/internal/pram"

// Combined interleaves algorithms V and X (Theorem 4.9): every processor
// alternates one V cycle (even ticks) and one X cycle (odd ticks), each
// over its own progress structures but the same Write-All array. Whichever
// algorithm finishes first completes the task, so the completed work is at
// most twice the minimum of the two:
//
//	S = O(min{N + P log^2 N + M log N,  N * P^0.6})
//
// and termination is guaranteed because X terminates under any
// failure/restart pattern, curing V's only weakness.
type Combined struct {
	arrayDone
}

// NewCombined returns the interleaved V+X algorithm.
func NewCombined() *Combined { return &Combined{} }

// Name implements pram.Algorithm.
func (c *Combined) Name() string { return "V+X" }

// XLayout returns the X component's shared layout.
func (c *Combined) XLayout(n, p int) TreeLayout { return NewTreeLayout(n, p, n) }

// VLayout returns the V component's shared layout, placed after X's.
func (c *Combined) VLayout(n, p int) VLayout {
	x := c.XLayout(n, p)
	return NewVLayout(n, p, x.Base+x.Size())
}

// MemorySize implements pram.Algorithm.
func (c *Combined) MemorySize(n, p int) int {
	v := c.VLayout(n, p)
	return v.Base + v.Size()
}

// Setup implements pram.Algorithm.
func (c *Combined) Setup(mem *pram.Memory, n, p int) {
	c.XLayout(n, p).SetupTree(mem.Store)
	c.VLayout(n, p).SetupTree(mem.Store)
}

// NewProcessor implements pram.Algorithm.
func (c *Combined) NewProcessor(pid, n, p int) pram.Processor {
	return &combinedProc{
		v: newVProc(pid, c.VLayout(n, p), 0, 2),
		x: &xProc{pid: pid, lay: c.XLayout(n, p)},
	}
}

var _ pram.Algorithm = (*Combined)(nil)

// combinedProc alternates the two component processors by tick parity. The
// stable action counter is used only by the X component, and either
// component halting ends the processor (a component halts only once the
// whole array is written).
type combinedProc struct {
	v *vProc
	x *xProc
}

// Reset implements pram.Resettable, rebuilding both component
// processors with Combined's clock mapping and stacked layouts (X's
// tree at N, V's structures after it), matching Combined.NewProcessor.
// The layouts are pure functions of (n, p), so they are kept when they
// match.
func (c *combinedProc) Reset(pid, n, p int) {
	x, v := c.x.lay, c.v.lay
	if x.N != n || x.P != p {
		x = NewTreeLayout(n, p, n)
		v = NewVLayout(n, p, x.Base+x.Size())
	}
	*c.x = xProc{pid: pid, lay: x}
	*c.v = vProc{pid: pid, lay: v, tickDiv: 2}
}

// Cycle implements pram.Processor.
func (c *combinedProc) Cycle(ctx *pram.Ctx) pram.Status {
	if ctx.Tick()%2 == 0 {
		return c.v.Cycle(ctx)
	}
	return c.x.Cycle(ctx)
}

// SnapshotState implements pram.Snapshotter: only the V component has
// private state (the X component's position is in shared memory).
func (c *combinedProc) SnapshotState() []pram.Word { return c.v.SnapshotState() }

// RestoreState implements pram.Snapshotter.
func (c *combinedProc) RestoreState(state []pram.Word) error { return c.v.RestoreState(state) }

var _ pram.Processor = (*combinedProc)(nil)
var _ pram.Snapshotter = (*combinedProc)(nil)
