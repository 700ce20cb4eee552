// Package failstop is a library for studying efficient parallel
// computation on restartable fail-stop processors, reproducing
// Kanellakis and Shvartsman, "Efficient Parallel Algorithms on Restartable
// Fail-Stop Processors" (PODC 1991, DOI 10.1145/112600.112603).
//
// It provides:
//
//   - a deterministic synchronous CRCW PRAM simulator whose processors
//     fail and restart under an on-line adversary, with the paper's
//     update-cycle accounting (completed work S, charge-everything S',
//     failure pattern size |F|, overhead ratio sigma);
//   - the paper's Write-All algorithms - V (synchronous phases with an
//     iteration wrap-around counter), X (local PID-directed tree search),
//     their Theorem 4.9 combination, the Theorem 3.2 oblivious snapshot
//     strategy - together with the [KS 89] algorithm W baseline, trivial
//     and sequential baselines, and a randomized coupon-clipping stand-in
//     for the [MSP 90] ACC algorithm;
//   - the paper's adversaries: thrashing (Example 2.2), the pigeonhole
//     halving lower-bound strategy (Theorem 3.1), the post-order attack
//     on X (Theorem 4.8), the leaf-stalking attack on ACC (Section 5),
//     plus random and scheduled patterns;
//   - a robust executor (Theorem 4.1) that runs arbitrary N-processor
//     PRAM programs on P restartable fail-stop processors via the
//     iterated Write-All paradigm of [KPS 90] and [Shv 89], with sample
//     programs (reduction, prefix sums, list ranking, sorting, matrix
//     multiplication);
//   - an experiment harness regenerating the quantitative shape of every
//     theorem, lemma, corollary and example in the paper (see DESIGN.md
//     and EXPERIMENTS.md).
//
// # Quick start
//
//	alg := failstop.NewX()
//	adv := failstop.RandomFailures(0.1, 0.5, 42)
//	metrics, err := failstop.RunWriteAll(alg, adv, failstop.Config{N: 1024, P: 1024})
//	if err != nil { ... }
//	fmt.Println("completed work:", metrics.S(), "overhead:", metrics.Overhead())
//
// # Model
//
// The machine advances in synchronous ticks; every live processor attempts
// one update cycle (<= 4 shared reads, O(1) private compute, <= 2 shared
// writes) per tick. The adversary sees everything - including the writes
// each processor is about to perform - and may fail any processor before
// its reads, after its reads, or between its writes, and restart failed
// processors. Failed processors lose all private memory except a one-word
// stable action counter ([SS 83]). The machine enforces the model's
// liveness rule: at least one update cycle completes per tick.
package failstop
