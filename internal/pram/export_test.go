package pram

// StripeCommits reports how many FillStride stripes the machine has
// committed since it was made, for the external tests that pin
// coalescing through real algorithms.
func (m *Machine) StripeCommits() int { return m.bctx.stripes }

// NewCtx returns a fresh update-cycle context for processor pid at
// tick, reading mem and holding the given stable counter: what the
// reference stepper of the external tests hands each cycle.
func NewCtx(pid, n, p, tick int, mem MemoryView, stable Word) *Ctx {
	c := &Ctx{pid: pid, n: n, p: p, mem: mem}
	c.reset(tick, stable)
	return c
}

// ReadLog returns the addresses the cycle read, in program order.
func (c *Ctx) ReadLog() []int { return c.readAddrs() }

// WriteLog returns the writes the cycle buffered, in program order.
func (c *Ctx) WriteLog() []WriteOp { return c.writeOps() }

// Snapshots returns how many snapshot instructions the cycle executed.
func (c *Ctx) Snapshots() int { return c.snapshots }

// StableUpdate returns the stable counter value the cycle set, if any.
func (c *Ctx) StableUpdate() (Word, bool) { return c.newStable, c.stableSet }

// NewStateView returns a view of the given per-PID states.
func NewStateView(states []ProcState) StateView {
	s := &procSet{states: states}
	s.rebuild()
	return StateView{s: s}
}

// PooledMachine returns the Runner's pooled machine, so tests can read
// the final memory of a run the Runner drove.
func (r *Runner) PooledMachine() *Machine { return r.m }

// DirtyBounds reports the shared memory's dirty bounds: the packed
// words and the unpacked cells below which a non-zero value may sit.
func (m *Machine) DirtyBounds() (words, cells int) { return m.mem.dirtyBits, m.mem.dirtyCells }
