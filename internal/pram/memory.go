package pram

import "math/bits"

// Memory is the reliable shared memory of the machine. Failures never
// corrupt it; word writes are atomic (the paper assumes atomic writes of
// O(log max{N,P})-bit words, Section 2.1).
//
// Two backing representations coexist behind the Load/Store API. The
// default stores one Word per cell. A packed memory additionally keeps a
// prefix [0, packLen) of the address space as one bit per cell, 64 cells
// per uint64 word — the natural layout for the paper's Write-All array,
// whose cells only ever hold 0 or 1. Packing is transparent: loads and
// stores translate addresses, and storing a value outside {0, 1} into
// the packed prefix promotes the whole memory to the unpacked layout
// (see promote), so packing can never change what a program observes.
type Memory struct {
	// cells holds the unpacked cells: the whole memory when packLen is
	// zero, otherwise the tail [packLen, Size()) shifted down by packLen.
	cells []Word
	// packLen is the length of the bit-packed prefix (0 = unpacked).
	packLen int
	// bits holds the packed prefix, cell addr at bits[addr>>6] bit
	// addr&63. Bits at positions >= packLen are always zero.
	bits []uint64
	// dirtyBits and dirtyCells are the dirty bounds of bits and cells:
	// every word of bits' backing array at or past dirtyBits, and every
	// cell of cells' backing array at or past dirtyCells, is zero, all
	// the way to the array's capacity. They index the backing arrays,
	// not the current lengths, so a reset to a smaller size still
	// clears what a larger earlier run dirtied. Resets clear only below
	// them, and zerosIn and fillOnesPacked read only below them.
	dirtyBits, dirtyCells int
}

// NewMemory returns a zeroed, unpacked shared memory of the given size.
// The paper's convention is that the N input cells are stored first and
// the rest of the memory is cleared.
func NewMemory(size int) *Memory {
	return &Memory{cells: make([]Word, size)}
}

// Reset resizes the memory to size unpacked cells and zeroes all of
// them, reusing the existing allocations when capacity suffices.
// Outstanding MemoryView values stay valid either way (they hold the
// *Memory, not the backing slices). Machine.Reset uses it to recycle
// shared memory across pooled runs.
func (m *Memory) Reset(size int) { m.ResetPacked(size, 0) }

// ResetPacked resizes the memory to size zeroed cells with the prefix
// [0, packLen) bit-packed (packLen is clamped to [0, size]), reusing
// existing allocations when capacity suffices.
func (m *Memory) ResetPacked(size, packLen int) {
	if packLen < 0 {
		packLen = 0
	}
	if packLen > size {
		packLen = size
	}
	m.packLen = packLen
	if nw := (packLen + 63) / 64; cap(m.bits) < nw {
		m.bits = make([]uint64, nw)
	} else {
		clear(m.bits[:m.dirtyBits])
		m.bits = m.bits[:nw]
	}
	if nc := size - packLen; cap(m.cells) < nc {
		m.cells = make([]Word, nc)
	} else {
		clear(m.cells[:m.dirtyCells])
		m.cells = m.cells[:nc]
	}
	m.dirtyBits, m.dirtyCells = 0, 0
}

// Size returns the number of addressable cells.
func (m *Memory) Size() int { return m.packLen + len(m.cells) }

// PackedLen returns the length of the bit-packed prefix (0 = unpacked).
func (m *Memory) PackedLen() int { return m.packLen }

// Load returns the value at addr.
func (m *Memory) Load(addr int) Word {
	if addr < m.packLen {
		return Word(m.bits[uint(addr)>>6] >> (uint(addr) & 63) & 1)
	}
	return m.cells[addr-m.packLen]
}

// Store sets the value at addr. Storing a value outside {0, 1} into the
// packed prefix promotes the memory to the unpacked layout first.
func (m *Memory) Store(addr int, v Word) {
	if addr < m.packLen {
		if v&^1 == 0 {
			w, mask := int(uint(addr)>>6), uint64(1)<<(uint(addr)&63)
			if v != 0 {
				m.bits[w] |= mask
				m.dirtyBits = max(m.dirtyBits, w+1)
			} else {
				m.bits[w] &^= mask
			}
			return
		}
		m.promote()
	}
	i := addr - m.packLen
	m.cells[i] = v
	m.dirtyCells = max(m.dirtyCells, i+1)
}

// promote converts the memory to the unpacked layout, preserving every
// cell's logical value. It is the safety valve that keeps packing
// universally correct: algorithms that write non-binary values into the
// Write-All array (X-in-place builds its tree there) silently fall back
// to one Word per cell and continue unchanged.
func (m *Memory) promote() {
	if m.packLen == 0 {
		return
	}
	cells := make([]Word, m.Size())
	setOnes(cells, m.bits[:m.dirtyBits])
	copy(cells[m.packLen:], m.cells)
	m.cells, m.dirtyCells = cells, len(cells)
	m.packLen = 0
	m.bits = m.bits[:0]
}

// setOnes sets dst[i] to 1 for every set bit i of the bit words ws.
func setOnes(dst []Word, ws []uint64) {
	for wi, word := range ws {
		base := wi << 6
		for word != 0 {
			dst[base+bits.TrailingZeros64(word)] = 1
			word &= word - 1
		}
	}
}

// fillOnesPacked sets every cell in [lo, hi) of the packed prefix to 1
// with whole-word stores and returns how many cells flipped from 0 to 1
// (via popcount, so callers can maintain zero-counts exactly, once per
// word rather than once per cell). Only the words below the dirty bound
// are read: every word past it is zero, so all 64 of its cells flip.
// The caller guarantees 0 <= lo <= hi <= packLen.
func (m *Memory) fillOnesPacked(lo, hi int) int {
	if lo >= hi {
		return 0
	}
	loW, hiW := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	ws, dirty := m.bits[loW:hiW+1], m.dirtyBits-loW
	m.dirtyBits = max(m.dirtyBits, hiW+1)
	if len(ws) == 1 {
		mask := loMask & hiMask
		old := ws[0]
		ws[0] = old | mask
		return bits.OnesCount64(mask &^ old)
	}
	newly := bits.OnesCount64(loMask&^ws[0]) + bits.OnesCount64(hiMask&^ws[len(ws)-1])
	ws[0] |= loMask
	ws[len(ws)-1] |= hiMask
	mid := ws[1 : len(ws)-1]
	read := mid[:min(max(dirty-1, 0), len(mid))]
	for i, w := range read {
		newly += bits.OnesCount64(^w)
		read[i] = ^uint64(0)
	}
	clean := mid[len(read):]
	for i := range clean {
		clean[i] = ^uint64(0)
	}
	return newly + 64*len(clean)
}

// zerosIn counts the zero cells in [lo, hi): popcount over the packed
// prefix, a scan over the unpacked tail, each reading only below its
// dirty bound. It backs the done-hint counter initialization, so on a
// freshly reset memory it reads nothing.
func (m *Memory) zerosIn(lo, hi int) int {
	set := 0
	if pe := min(hi, m.packLen, m.dirtyBits<<6); lo < pe {
		loW, hiW := lo>>6, (pe-1)>>6
		loMask := ^uint64(0) << (uint(lo) & 63)
		hiMask := ^uint64(0) >> (63 - (uint(pe-1) & 63))
		ws := m.bits[loW : hiW+1]
		if len(ws) == 1 {
			set = bits.OnesCount64(ws[0] & loMask & hiMask)
		} else {
			set = bits.OnesCount64(ws[0]&loMask) + bits.OnesCount64(ws[len(ws)-1]&hiMask)
			for _, w := range ws[1 : len(ws)-1] {
				set += bits.OnesCount64(w)
			}
		}
	}
	if tlo, the := max(lo-m.packLen, 0), min(hi-m.packLen, m.dirtyCells); tlo < the {
		for _, v := range m.cells[tlo:the] {
			if v != 0 {
				set++
			}
		}
	}
	return hi - lo - set
}

// CopyInto copies the whole memory, materialized to one Word per cell,
// into dst, growing it if needed, and returns the destination slice. It
// backs the unit-cost snapshot instruction used by the oblivious
// algorithm of Theorem 3.2.
func (m *Memory) CopyInto(dst []Word) []Word {
	size := m.Size()
	if cap(dst) < size {
		dst = make([]Word, size)
	}
	dst = dst[:size]
	clear(dst[:m.packLen])
	setOnes(dst, m.bits[:min(m.dirtyBits, len(m.bits))])
	copy(dst[m.packLen:], m.cells)
	return dst
}

// Restore replaces the entire memory contents with the materialized
// image src, resizing to len(src). A matching-size packed memory keeps
// its layout (values are re-stored logically, promoting if src holds a
// non-binary value in the packed prefix); a size change resets to the
// unpacked layout. Machine.RestoreSnapshot uses it to reinstate a
// checkpointed memory image.
func (m *Memory) Restore(src []Word) {
	if len(src) != m.Size() {
		m.ResetPacked(len(src), 0)
	}
	if m.packLen == 0 {
		m.dirtyCells = max(m.dirtyCells, copy(m.cells, src))
		return
	}
	m.ResetPacked(m.Size(), m.packLen)
	for addr, v := range src {
		if v != 0 {
			m.Store(addr, v)
		}
	}
}

// RestoreParts reinstates a snapshot captured in representation form:
// a bit-packed prefix of srcPackLen cells in srcBits plus the unpacked
// tail srcTail (srcPackLen == 0 means srcTail is the whole memory). The
// memory is reset to size srcPackLen+len(srcTail) with its own prefix
// [0, packLen) packed; when the layouts coincide the words are copied
// directly, otherwise every non-zero cell is re-stored logically (which
// promotes if the source holds non-binary values in this memory's
// packed prefix — e.g. a snapshot taken after the source machine itself
// promoted).
func (m *Memory) RestoreParts(packLen, srcPackLen int, srcBits []uint64, srcTail []Word) {
	m.ResetPacked(srcPackLen+len(srcTail), packLen)
	if srcPackLen == m.packLen {
		m.dirtyBits = copy(m.bits, srcBits)
		m.dirtyCells = copy(m.cells, srcTail)
		return
	}
	for wi, word := range srcBits {
		base := wi << 6
		for word != 0 {
			m.Store(base+bits.TrailingZeros64(word), 1)
			word &= word - 1
		}
	}
	for i, v := range srcTail {
		if v != 0 {
			m.Store(srcPackLen+i, v)
		}
	}
}

// Slice returns a copy of the region [start, start+n). The copy is
// deliberate: an alias into live shared memory would let callers mutate
// machine state (or observe packed cells at the wrong width) through a
// stale slice. Use Load for single cells or CopyInto to reuse a buffer.
func (m *Memory) Slice(start, n int) []Word {
	out := make([]Word, n)
	for i := range out {
		out[i] = m.Load(start + i)
	}
	return out
}
