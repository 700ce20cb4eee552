package pram

import "math/bits"

// procSet is the machine's processor-state table: each PID's liveness,
// the alive and dead PIDs as bitsets (one bit per PID, 64 to a word),
// and the count of each state. Every state change goes through set, so
// the tick loops and the adversaries can visit just the processors in
// one state, a word at a time in PID order, instead of scanning all P.
type procSet struct {
	states                 []ProcState
	alive, dead            []uint64
	nAlive, nDead, nHalted int
}

// reset makes all p processors alive.
func (s *procSet) reset(p int) {
	s.states = grow(s.states, p)
	for pid := range s.states {
		s.states[pid] = Alive
	}
	s.rebuild()
}

// rebuild recomputes the bitsets and counts from states.
func (s *procSet) rebuild() {
	words := (len(s.states) + 63) / 64
	s.alive = grow(s.alive, words)
	s.dead = grow(s.dead, words)
	clear(s.alive)
	clear(s.dead)
	s.nAlive, s.nDead, s.nHalted = 0, 0, 0
	for pid, st := range s.states {
		bit := uint64(1) << (pid & 63)
		switch st {
		case Alive:
			s.alive[pid>>6] |= bit
			s.nAlive++
		case Dead:
			s.dead[pid>>6] |= bit
			s.nDead++
		case Halted:
			s.nHalted++
		}
	}
}

// set moves pid to state st.
func (s *procSet) set(pid int, st ProcState) {
	w, bit := pid>>6, uint64(1)<<(pid&63)
	switch s.states[pid] {
	case Alive:
		s.alive[w] &^= bit
		s.nAlive--
	case Dead:
		s.dead[w] &^= bit
		s.nDead--
	case Halted:
		s.nHalted--
	}
	switch st {
	case Alive:
		s.alive[w] |= bit
		s.nAlive++
	case Dead:
		s.dead[w] |= bit
		s.nDead++
	case Halted:
		s.nHalted++
	}
	s.states[pid] = st
}

// nextSet returns the smallest set bit index >= pid in set, or -1.
func nextSet(set []uint64, pid int) int {
	pid = max(pid, 0)
	i := pid >> 6
	if i >= len(set) {
		return -1
	}
	w := set[i] &^ (uint64(1)<<(pid&63) - 1)
	for w == 0 {
		i++
		if i == len(set) {
			return -1
		}
		w = set[i]
	}
	return i<<6 | bits.TrailingZeros64(w)
}
