package pram

import (
	"slices"
	"testing"
)

// TestMemoryCopyIntoGrowAndReuse pins CopyInto's contract: a destination
// with enough capacity is reused in place (no allocation — what keeps
// repeated snapshots allocation-free), a short one is replaced by a fresh
// slice, and the result is always an independent copy of the cells.
func TestMemoryCopyIntoGrowAndReuse(t *testing.T) {
	m := NewMemory(8)
	for i := 0; i < 8; i++ {
		m.Store(i, Word(i+1))
	}

	t.Run("nil-dst-allocates", func(t *testing.T) {
		out := m.CopyInto(nil)
		if len(out) != 8 {
			t.Fatalf("len = %d, want 8", len(out))
		}
		for i := range out {
			if out[i] != Word(i+1) {
				t.Fatalf("out[%d] = %d, want %d", i, out[i], i+1)
			}
		}
	})

	t.Run("capacious-dst-reused", func(t *testing.T) {
		dst := make([]Word, 0, 32)
		out := m.CopyInto(dst)
		if len(out) != 8 {
			t.Fatalf("len = %d, want 8", len(out))
		}
		if &out[0] != &dst[:1][0] {
			t.Error("CopyInto reallocated despite sufficient capacity")
		}
		if avg := testing.AllocsPerRun(100, func() { out = m.CopyInto(out) }); avg != 0 {
			t.Errorf("reusing CopyInto allocates %.2f objects/op, want 0", avg)
		}
	})

	t.Run("long-dst-trimmed", func(t *testing.T) {
		dst := make([]Word, 20)
		dst[19] = 99
		out := m.CopyInto(dst)
		if len(out) != 8 {
			t.Fatalf("len = %d, want 8 (trimmed to memory size)", len(out))
		}
		if &out[0] != &dst[0] {
			t.Error("CopyInto reallocated despite sufficient capacity")
		}
	})

	t.Run("short-dst-grown", func(t *testing.T) {
		dst := make([]Word, 2)
		out := m.CopyInto(dst)
		if len(out) != 8 {
			t.Fatalf("len = %d, want 8", len(out))
		}
		if &out[0] == &dst[0] {
			t.Error("CopyInto kept a destination that was too small")
		}
		if dst[0] != 0 || dst[1] != 0 {
			t.Error("CopyInto scribbled on the rejected short destination")
		}
	})

	t.Run("aliasing-safety", func(t *testing.T) {
		out := m.CopyInto(nil)
		out[0] = 1000
		if m.Load(0) != 1 {
			t.Error("mutating the copy changed the memory")
		}
		m.Store(1, 2000)
		if out[1] != 2 {
			t.Error("mutating the memory changed an earlier copy")
		}
		m.Store(1, 2) // restore
	})
}

// TestMemoryResetReuse pins Memory.Reset: same-or-smaller sizes reuse the
// backing array and zero every cell; larger sizes grow.
func TestMemoryResetReuse(t *testing.T) {
	m := NewMemory(16)
	for i := 0; i < 16; i++ {
		m.Store(i, 7)
	}
	m.Reset(8)
	if m.Size() != 8 {
		t.Fatalf("Size = %d, want 8", m.Size())
	}
	for i := 0; i < 8; i++ {
		if m.Load(i) != 0 {
			t.Fatalf("cell %d = %d after Reset, want 0", i, m.Load(i))
		}
	}
	// Growing back within the original capacity must expose zeroed cells,
	// not the stale 7s beyond the previous length.
	m.Store(0, 1)
	m.Reset(16)
	for i := 0; i < 16; i++ {
		if m.Load(i) != 0 {
			t.Fatalf("cell %d = %d after regrow Reset, want 0", i, m.Load(i))
		}
	}
	if avg := testing.AllocsPerRun(100, func() { m.Reset(16) }); avg != 0 {
		t.Errorf("same-size Reset allocates %.2f objects/op, want 0", avg)
	}
	m.Reset(64)
	if m.Size() != 64 {
		t.Fatalf("Size = %d, want 64", m.Size())
	}
	for i := 0; i < 64; i++ {
		if m.Load(i) != 0 {
			t.Fatalf("cell %d = %d after growing Reset, want 0", i, m.Load(i))
		}
	}
}

// TestCtxSnapshotGrowAndReuse pins the snapshot instruction's buffer
// semantics as the oblivious algorithm depends on them: the first
// snapshot allocates, subsequent snapshots into the returned buffer reuse
// it, and the snapshot is a copy, immune to later commits.
func TestCtxSnapshotGrowAndReuse(t *testing.T) {
	m := NewMemory(8)
	m.Store(3, 42)
	c := &Ctx{mem: m.View()}

	snap := c.Snapshot(nil)
	if len(snap) != 8 || snap[3] != 42 {
		t.Fatalf("snapshot = %v, want cell 3 = 42, len 8", snap)
	}
	if avg := testing.AllocsPerRun(100, func() { snap = c.Snapshot(snap) }); avg != 0 {
		t.Errorf("snapshot reuse allocates %.2f objects/op, want 0", avg)
	}
	m.Store(3, 7)
	if snap[3] != 42 {
		t.Error("snapshot aliased live memory: later Store leaked into it")
	}
	if c.snapshots == 0 {
		t.Error("Snapshot did not count toward the cycle's snapshot charge")
	}
}

// memOps decodes a fuzz input into Memory operations: each call takes
// the next byte, or 0 once the input is spent.
type memOps struct {
	data []byte
	pos  int
}

func (o *memOps) byte() int {
	if o.pos >= len(o.data) {
		return 0
	}
	o.pos++
	return int(o.data[o.pos-1])
}

// upTo returns a value in [0, n].
func (o *memOps) upTo(n int) int { return (o.byte() | o.byte()<<8) % (n + 1) }

// word returns 0 or 1, or for one byte value in 16 a value >= 2, which
// promotes a packed prefix it is stored into.
func (o *memOps) word() Word {
	b := o.byte()
	if b >= 0xF0 {
		return Word(2 + b&0xF)
	}
	return Word(b & 1)
}

// FuzzMemoryOps replays decoded sequences of resets, stores, packed
// fills and restores on a Memory and on a plain []Word model of the same
// memory. After every operation each Load and the zero counts over
// random ranges must match the model, and no word or cell at or past a
// dirty bound may be non-zero, up to the backing array's capacity: a
// bound set too low would make a reset leave stale ones behind, and one
// too high stays correct but silently reads memory the machine knows is
// zero. The committed corpus holds a fill followed by a reset to a
// smaller size, a promotion followed by a packed reset, a same-size
// Restore followed by a RestoreParts across layouts, a RestoreParts
// with matching layouts followed by a fill over the copied words, and a
// Restore and a RestoreParts that copy cells into an unpacked memory.
func FuzzMemoryOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		o := &memOps{data: data}
		m := NewMemory(0)
		var model []Word
		for step := 0; step < 64 && o.pos < len(data); step++ {
			switch o.byte() % 5 {
			case 0: // ResetPacked to a fresh size and packed length
				size := o.upTo(700)
				m.ResetPacked(size, o.upTo(size+8)-4)
				model = make([]Word, size)
			case 1: // Store
				if len(model) == 0 {
					continue
				}
				addr, v := o.upTo(len(model)-1), o.word()
				m.Store(addr, v)
				model[addr] = v
			case 2: // fillOnesPacked over a range of the packed prefix
				lo := o.upTo(m.PackedLen())
				hi := lo + o.upTo(m.PackedLen()-lo)
				flips := 0
				for a := lo; a < hi; a++ {
					if model[a] == 0 {
						flips++
					}
					model[a] = 1
				}
				if got := m.fillOnesPacked(lo, hi); got != flips {
					t.Fatalf("step %d: fillOnesPacked(%d, %d) flipped %d cells, want %d", step, lo, hi, got, flips)
				}
			case 3: // Restore an image of this size or a new one
				size := len(model)
				if o.byte()&1 == 1 {
					size = o.upTo(700)
				}
				src := make([]Word, size)
				for i := range src {
					if o.byte()&3 == 0 {
						src[i] = o.word()
					}
				}
				m.Restore(src)
				model = src
			case 4: // RestoreParts from a packed prefix and a tail
				srcPack, tail := o.upTo(300), o.upTo(300)
				packLen := o.upTo(srcPack + tail)
				model = make([]Word, srcPack+tail)
				srcBits := make([]uint64, (srcPack+63)/64)
				for a := range srcPack {
					if o.byte()&1 == 1 {
						srcBits[a>>6] |= 1 << (a & 63)
						model[a] = 1
					}
				}
				srcTail := make([]Word, tail)
				for i := range srcTail {
					if o.byte()&3 == 0 {
						srcTail[i] = o.word()
						model[srcPack+i] = srcTail[i]
					}
				}
				m.RestoreParts(packLen, srcPack, srcBits, srcTail)
			}
			checkMemory(t, m, model, o, step)
		}
	})
}

// checkMemory holds m to the model after a fuzzed operation: Size,
// every Load, CopyInto, zerosIn over the whole memory and two decoded
// ranges, and the dirty-bound invariant over both backing arrays.
func checkMemory(t *testing.T, m *Memory, model []Word, o *memOps, step int) {
	t.Helper()
	if m.Size() != len(model) {
		t.Fatalf("step %d: Size = %d, want %d", step, m.Size(), len(model))
	}
	for a, want := range model {
		if got := m.Load(a); got != want {
			t.Fatalf("step %d: Load(%d) = %d, want %d (packed prefix %d)", step, a, got, want, m.PackedLen())
		}
	}
	if got := m.CopyInto(nil); !slices.Equal(got, model) {
		i := 0
		for i < min(len(got), len(model)) && got[i] == model[i] {
			i++
		}
		t.Fatalf("step %d: CopyInto diverges from the model at cell %d of %d", step, i, len(model))
	}
	ranges := [][2]int{{0, len(model)}}
	for range 2 {
		lo := o.upTo(len(model))
		ranges = append(ranges, [2]int{lo, lo + o.upTo(len(model)-lo)})
	}
	for _, r := range ranges {
		want := 0
		for _, v := range model[r[0]:r[1]] {
			if v == 0 {
				want++
			}
		}
		if got := m.zerosIn(r[0], r[1]); got != want {
			t.Fatalf("step %d: zerosIn(%d, %d) = %d, want %d", step, r[0], r[1], got, want)
		}
	}
	if m.dirtyBits > cap(m.bits) || m.dirtyCells > cap(m.cells) {
		t.Fatalf("step %d: dirty bounds %d/%d past capacities %d/%d", step, m.dirtyBits, m.dirtyCells, cap(m.bits), cap(m.cells))
	}
	for i, w := range m.bits[:cap(m.bits)][m.dirtyBits:] {
		if w != 0 {
			t.Fatalf("step %d: packed word %d = %#x at or past dirtyBits %d", step, m.dirtyBits+i, w, m.dirtyBits)
		}
	}
	for i, v := range m.cells[:cap(m.cells)][m.dirtyCells:] {
		if v != 0 {
			t.Fatalf("step %d: cell %d = %d at or past dirtyCells %d", step, m.dirtyCells+i, v, m.dirtyCells)
		}
	}
}
