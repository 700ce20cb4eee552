package pram

// MemoryView is an immutable, read-only view of the shared memory as of
// the start of a tick. Update cycles and adversaries receive a MemoryView
// rather than the *Memory itself: within a tick all writes are buffered
// and committed synchronously afterwards, so every reader of the view
// observes the same pre-tick snapshot. Because a MemoryView cannot write,
// no cycle or adversary holding one can disturb what the others of the
// same tick read.
type MemoryView struct {
	mem *Memory
}

// View returns a read-only view of the memory.
func (m *Memory) View() MemoryView { return MemoryView{mem: m} }

// Size returns the number of addressable cells.
func (v MemoryView) Size() int { return v.mem.Size() }

// Load returns the value at addr.
func (v MemoryView) Load(addr int) Word { return v.mem.Load(addr) }

// CopyInto copies the whole memory into dst, growing it if needed, and
// returns the destination slice (the Theorem 3.2 snapshot instruction).
func (v MemoryView) CopyInto(dst []Word) []Word { return v.mem.CopyInto(dst) }

// Slice returns a copy of the region [start, start+n); see Memory.Slice
// for why it never aliases machine state.
func (v MemoryView) Slice(start, n int) []Word { return v.mem.Slice(start, n) }

// StateView is an immutable, read-only view of processor liveness at the
// start of a tick. It is one pointer wide, so passing it and calling its
// methods copies nothing.
type StateView struct {
	s *procSet
}

// Len returns the number of processors.
func (v StateView) Len() int { return len(v.s.states) }

// At returns processor pid's liveness.
func (v StateView) At(pid int) ProcState { return v.s.states[pid] }

// NextAlive returns the smallest alive PID >= pid, or -1 if there is
// none. Iterating with it visits only the alive processors.
func (v StateView) NextAlive(pid int) int { return nextSet(v.s.alive, pid) }

// NextDead returns the smallest dead PID >= pid, or -1 if there is none.
func (v StateView) NextDead(pid int) int { return nextSet(v.s.dead, pid) }

// NumDead returns the number of processors in state Dead.
func (v StateView) NumDead() int { return v.s.nDead }
