package adversary

import (
	"sort"

	"repro/internal/pram"
)

// Halving is the lower-bound adversary of Theorem 3.1. Every tick it
// revives all failed processors, inspects which still-unvisited Write-All
// cells the processors are about to write, and - by the pigeonhole
// principle - fails the writers of the half of those cells that have the
// fewest writers assigned. At most half of the attacked progress can
// therefore land per tick while at least half of the processors complete
// chargeable cycles, which forces Omega(N log N) completed work on any
// algorithm.
//
// It relies on the repository convention that the Write-All array x is
// stored in shared cells [0, N).
type Halving struct {
	// NoRestarts leaves failed processors dead, turning the strategy
	// into a fail-stop (no restart) attack in the style of the [KS 89]
	// lower bound; experiment E13 uses it against algorithm X.
	NoRestarts bool

	// scratch and decision buffers, reused across ticks
	writers  map[int][]int
	cells    []int
	fails    []pram.Failure
	restarts []int
}

// NewHalving returns a halving lower-bound adversary.
func NewHalving() *Halving {
	return &Halving{writers: make(map[int][]int)}
}

// Name implements pram.Adversary.
func (h *Halving) Name() string {
	if h.NoRestarts {
		return "halving-failstop"
	}
	return "halving"
}

// Decide implements pram.Adversary.
func (h *Halving) Decide(v *pram.View) pram.Decision {
	h.fails, h.restarts = h.fails[:0], h.restarts[:0]
	if !h.NoRestarts {
		for pid := v.States.NextDead(0); pid >= 0; pid = v.States.NextDead(pid + 1) {
			h.restarts = append(h.restarts, pid)
		}
	}
	dec := pram.Decision{Restarts: h.restarts}

	// Group the processors about to write an unvisited array cell by the
	// cell they target.
	if h.writers == nil {
		h.writers = make(map[int][]int)
	}
	clear(h.writers)
	h.cells = h.cells[:0]
	for pid, in := range v.Intents {
		if in == nil {
			continue
		}
		for _, w := range in.Writes {
			if w.Addr >= v.N || w.Val == 0 || v.Mem.Load(w.Addr) != 0 {
				continue
			}
			if len(h.writers[w.Addr]) == 0 {
				h.cells = append(h.cells, w.Addr)
			}
			h.writers[w.Addr] = append(h.writers[w.Addr], pid)
		}
	}
	if len(h.cells) < 2 {
		// Nothing to halve; with a single targeted cell the adversary
		// lets it complete (its strategy runs for log N halvings and
		// then stops, so the run terminates).
		return dec
	}

	// Fail the writers of the floor(k/2) cells with the fewest writers;
	// the cells keep their sorted order by writer count, ties broken by
	// address for determinism.
	sort.Slice(h.cells, func(i, j int) bool {
		a, b := h.cells[i], h.cells[j]
		if len(h.writers[a]) != len(h.writers[b]) {
			return len(h.writers[a]) < len(h.writers[b])
		}
		return a < b
	})
	for _, cell := range h.cells[:len(h.cells)/2] {
		for _, pid := range h.writers[cell] {
			h.fails = append(h.fails, pram.Failure{PID: pid, Point: pram.FailBeforeReads})
		}
	}
	dec.Failures = h.fails
	return dec
}

// SnapshotState implements pram.Snapshotter: the writers map and cell
// list are per-tick scratch, rebuilt from each tick's intents, so the
// adversary carries no cross-tick state. The explicit implementation
// documents that to the checkpoint subsystem.
func (h *Halving) SnapshotState() []pram.Word { return nil }

// RestoreState implements pram.Snapshotter.
func (h *Halving) RestoreState(state []pram.Word) error {
	if len(state) != 0 {
		return pram.StateLenError("adversary: halving", len(state), 0)
	}
	return nil
}

var _ pram.Adversary = (*Halving)(nil)
var _ pram.Snapshotter = (*Halving)(nil)
