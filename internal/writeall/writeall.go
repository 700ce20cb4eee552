// Package writeall implements the Write-All algorithms of Kanellakis and
// Shvartsman (PODC 1991) and their baselines:
//
//   - Trivial: the optimal failure-free parallel assignment (no fault
//     tolerance), and Sequential, a single checkpointing processor.
//   - W: the four-phase algorithm of [KS 89], the fail-stop (no restart)
//     baseline this paper modifies.
//   - V: the paper's Section 4.1 modification of W for restarts, with the
//     iteration wrap-around counter.
//   - X: the paper's Section 4.2 local-traversal algorithm with
//     PID-bit-directed descent (appendix pseudocode).
//   - Combined: the Theorem 4.9 interleaving of V and X.
//   - Oblivious: the Theorem 3.2 algorithm for the strong model in which
//     a processor reads the whole shared memory at unit cost.
//   - ACC: a randomized coupon-clipping stand-in for [MSP 90], used by the
//     Section 5 stalking-adversary experiments.
//
// All algorithms follow the repository convention that the Write-All array
// x occupies shared cells [0, N); a cell is visited when it holds a
// non-zero value. The algorithm-specific adversaries of Theorem 4.8
// (post-order against X) and Section 5 (leaf-stalking against ACC) also
// live here because they read the algorithms' tree layouts.
package writeall

import "repro/internal/pram"

// NextPow2 returns the smallest power of two >= n (and 1 for n < 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Log2 returns log2(n) for a power of two n.
func Log2(n int) int {
	l := 0
	for 1<<uint(l) < n {
		l++
	}
	return l
}

// arrayDone supplies the two completion methods every Write-All
// algorithm shares. It holds no run state: the task is complete exactly
// when cells [0, N) are all non-zero, a predicate of shared memory alone.
type arrayDone struct{}

// Done implements pram.Algorithm by scanning cells [0, N). The machine
// never polls it for an embedding algorithm (it keeps the DoneCells
// counter instead), so the scan is the plain oracle the reference
// stepper and the done-hint tests hold that counter to.
func (arrayDone) Done(mem pram.MemoryView, n, p int) bool {
	for i := 0; i < n; i++ {
		if mem.Load(i) == 0 {
			return false
		}
	}
	return true
}

// DoneCells implements pram.ArrayDoneHinter for every embedding
// algorithm: the Write-All task is complete exactly when cells [0, N)
// are all non-zero, so the machine can maintain an O(1) remaining-unset
// counter instead of polling done every tick.
func (arrayDone) DoneCells(n, p int) int { return n }

// b2w encodes a bool state flag as a snapshot word.
func b2w(b bool) pram.Word {
	if b {
		return 1
	}
	return 0
}

// Verify reports whether the Write-All postcondition holds: every cell of
// x[0..n) is non-zero.
func Verify(mem *pram.Memory, n int) bool { return arrayDone{}.Done(mem.View(), n, 0) }
