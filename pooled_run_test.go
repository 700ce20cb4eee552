package failstop

import (
	"fmt"
	"testing"

	"repro/internal/pram"
)

// runPooled executes one run on the shared Runner, reusing alg (the same
// Algorithm value every round, so Resettable processor recycling
// engages), and captures the same observables as runStepped.
func runPooled(t *testing.T, r *pram.Runner, alg Algorithm, adv Adversary, cfg Config) kernelRun {
	t.Helper()
	var out kernelRun
	cfg.Sink = &out.trace
	m, err := r.Machine(cfg, alg, adv)
	if err != nil {
		t.Fatalf("Runner.Machine: %v", err)
	}
	out.metrics, err = m.Run()
	if err != nil {
		out.err = err.Error()
	}
	out.mem = m.Memory().CopyInto(nil)
	return out
}

// TestPooledRunEquivalence is the determinism contract of Machine.Reset:
// a Runner that reuses one machine and one Algorithm instance across
// consecutive runs produces outcomes bit-identical (metrics, final
// memory, traces, errors) to a fresh machine with a fresh algorithm
// instance, across the Write-All algorithm x adversary grid. Rounds 2+
// start from a dirty machine — dead processors, retired Resettable state,
// advanced clocks — so they prove both the reset and the in-place
// processor recycling. ACC is deliberately absent: its NewProcessor draws
// fresh random streams per incarnation, so instance reuse intentionally
// yields different (but valid) runs; it is exactly the kind of algorithm
// the Resettable opt-in protects.
func TestPooledRunEquivalence(t *testing.T) {
	const n, p = 64, 16
	base := Config{N: n, P: p, MaxTicks: 4000}
	snapshot := base
	snapshot.AllowSnapshot = true

	algs := []struct {
		name string
		cfg  Config
		mk   func() Algorithm
	}{
		{"X", base, NewX},
		{"X-in-place", base, NewXInPlace},
		{"V", base, NewV},
		{"combined", base, NewCombined},
		{"W", base, NewW},
		{"oblivious", snapshot, NewOblivious},
		{"trivial", base, NewTrivial},
		{"sequential", base, NewSequential},
		{"replicated", base, NewReplicated},
	}
	advs := []struct {
		name string
		mk   func() Adversary
	}{
		{"none", NoFailures},
		{"random", func() Adversary { return RandomFailures(0.2, 0.6, 7) }},
		{"random-budgeted", func() Adversary { return BudgetedRandomFailures(0.3, 0.7, 13, 64) }},
		{"thrashing", func() Adversary { return ThrashingAdversary(false) }},
		{"rotating", func() Adversary { return ThrashingAdversary(true) }},
		{"halving", HalvingAdversary},
	}

	for _, alg := range algs {
		for _, adv := range advs {
			t.Run(alg.name+"/"+adv.name, func(t *testing.T) {
				fresh := runStepped(t, alg.mk, adv.mk, alg.cfg)
				var runner pram.Runner
				defer runner.Close()
				algInst := alg.mk()
				for round := 0; round < 3; round++ {
					got := runPooled(t, &runner, algInst, adv.mk(), alg.cfg)
					assertRunsEqual(t, fmt.Sprintf("pooled round=%d", round), fresh, got)
				}
			})
		}
	}
}

// TestPooledRunResize drives one Runner through changing (N, P) shapes —
// growing, shrinking, regrowing — interleaved with fresh-machine
// references, so cross-run buffer reuse (memory Reset, scratch regrowth,
// processor recycling at a different P) is checked against every shape
// transition, not just same-shape reruns.
func TestPooledRunResize(t *testing.T) {
	shapes := []struct{ n, p int }{
		{64, 16}, {128, 32}, {16, 4}, {128, 32}, {64, 64},
	}
	mkAdv := func() Adversary { return RandomFailures(0.25, 0.5, 11) }
	var runner pram.Runner
	defer runner.Close()
	algInst := NewX()
	for i, s := range shapes {
		cfg := Config{N: s.n, P: s.p, MaxTicks: 8000}
		fresh := runStepped(t, NewX, mkAdv, cfg)
		got := runPooled(t, &runner, algInst, mkAdv(), cfg)
		assertRunsEqual(t, fmt.Sprintf("shape %d (N=%d P=%d)", i, s.n, s.p), fresh, got)
	}
}

// TestDoneHintMatchesPolledOracle checks the incremental Done counter
// against the polled Done predicate it replaces: for every algorithm x
// adversary pairing, a run with the hint (the default for Write-All
// algorithms, which all embed the array predicate) is bit-identical to a
// run of the algorithm wrapped in struct{ pram.Algorithm }, which hides
// DoneCells and so forces the polled oracle. Any divergence — an early
// or late termination tick — would show up in the metrics and tick
// traces.
func TestDoneHintMatchesPolledOracle(t *testing.T) {
	const n, p = 64, 16
	base := Config{N: n, P: p, MaxTicks: 4000}
	snapshot := base
	snapshot.AllowSnapshot = true

	algs := []struct {
		name string
		cfg  Config
		mk   func() Algorithm
	}{
		{"X", base, NewX},
		{"X-in-place", base, NewXInPlace},
		{"V", base, NewV},
		{"combined", base, NewCombined},
		{"W", base, NewW},
		{"oblivious", snapshot, NewOblivious},
		{"ACC", base, func() Algorithm { return NewACC(11) }},
		{"trivial", base, NewTrivial},
		{"sequential", base, NewSequential},
		{"replicated", base, NewReplicated},
	}
	advs := []struct {
		name string
		mk   func() Adversary
	}{
		{"none", NoFailures},
		{"random", func() Adversary { return RandomFailures(0.2, 0.6, 7) }},
		{"thrashing", func() Adversary { return ThrashingAdversary(false) }},
		{"halving", HalvingAdversary},
	}

	for _, alg := range algs {
		for _, adv := range advs {
			t.Run(alg.name+"/"+adv.name, func(t *testing.T) {
				hinted := runStepped(t, alg.mk, adv.mk, alg.cfg)
				polled := func() Algorithm { return struct{ pram.Algorithm }{alg.mk()} }
				oracle := runStepped(t, polled, adv.mk, alg.cfg)
				assertRunsEqual(t, "hint vs polled oracle", oracle, hinted)
			})
		}
	}
}
