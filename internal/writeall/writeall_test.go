package writeall_test

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/pram"
	"repro/internal/writeall"
)

// run executes one Write-All instance and asserts the postcondition.
func run(t *testing.T, cfg pram.Config, alg pram.Algorithm, adv pram.Adversary) pram.Metrics {
	t.Helper()
	m, err := pram.New(cfg, alg, adv)
	if err != nil {
		t.Fatalf("New(%s, %s): %v", alg.Name(), adv.Name(), err)
	}
	got, err := m.Run()
	if err != nil {
		t.Fatalf("Run(%s, %s): %v", alg.Name(), adv.Name(), err)
	}
	if !writeall.Verify(m.Memory(), cfg.N) {
		t.Fatalf("Write-All postcondition violated (%s under %s)", alg.Name(), adv.Name())
	}
	return got
}

// algorithms returns fresh instances of every restart-tolerant Write-All
// algorithm (one value per run: ACC's incarnation counter is per-run
// state).
func algorithms() []pram.Algorithm {
	return []pram.Algorithm{
		writeall.NewX(),
		writeall.NewXWithOptions(writeall.XOptions{EvenSpacing: true}),
		writeall.NewXWithOptions(writeall.XOptions{CountProgress: true}),
		writeall.NewXInPlace(),
		writeall.NewV(),
		writeall.NewCombined(),
		writeall.NewACC(42),
	}
}

func TestAlgorithmsSolveWriteAllFailureFree(t *testing.T) {
	sizes := []struct{ n, p int }{
		{n: 1, p: 1},
		{n: 2, p: 1},
		{n: 8, p: 8},
		{n: 16, p: 4},
		{n: 33, p: 7},   // non-power-of-two N, P < N
		{n: 100, p: 10}, // block tree much smaller than array
		{n: 128, p: 128},
	}
	algs := func() []pram.Algorithm {
		return append(algorithms(), writeall.NewW(), writeall.NewTrivial(), writeall.NewSequential())
	}
	for _, sz := range sizes {
		for _, alg := range algs() {
			t.Run(fmt.Sprintf("%s/N=%d,P=%d", alg.Name(), sz.n, sz.p), func(t *testing.T) {
				run(t, pram.Config{N: sz.n, P: sz.p}, alg, adversary.None{})
			})
		}
	}
}

func TestAlgorithmsSolveWriteAllUnderRandomFailures(t *testing.T) {
	sizes := []struct{ n, p int }{
		{n: 8, p: 8},
		{n: 64, p: 16},
		{n: 100, p: 32},
		{n: 128, p: 128},
	}
	for _, sz := range sizes {
		for _, alg := range algorithms() {
			t.Run(fmt.Sprintf("%s/N=%d,P=%d", alg.Name(), sz.n, sz.p), func(t *testing.T) {
				adv := adversary.NewRandom(0.2, 0.5, 7)
				adv.Points = []pram.FailPoint{
					pram.FailBeforeReads, pram.FailAfterReads, pram.FailAfterWrite1,
				}
				got := run(t, pram.Config{N: sz.n, P: sz.p}, alg, adv)
				if got.FSize() == 0 {
					t.Error("no failure events; test is vacuous")
				}
			})
		}
	}
}

func TestAlgorithmsSolveWriteAllUnderThrashing(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.Name(), func(t *testing.T) {
			got := run(t, pram.Config{N: 32, P: 32}, alg, &adversary.Thrashing{})
			// Thrashing admits exactly one completed cycle per tick.
			if got.Completed != int64(got.Ticks) {
				t.Errorf("Completed = %d, Ticks = %d; thrashing must admit one cycle per tick",
					got.Completed, got.Ticks)
			}
		})
	}
}

func TestAlgorithmsSolveWriteAllUnderHalving(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.Name(), func(t *testing.T) {
			run(t, pram.Config{N: 64, P: 64}, alg, adversary.NewHalving())
		})
	}
}

func TestWUnderFailStopNoRestart(t *testing.T) {
	// W is only guaranteed under failures without restarts (its very
	// limitation motivates V). Kill processors but never revive them.
	adv := adversary.NewRandom(0.05, 0, 11)
	got := run(t, pram.Config{N: 128, P: 64}, writeall.NewW(), adv)
	if got.Restarts != 0 {
		t.Errorf("Restarts = %d, want 0", got.Restarts)
	}
	if got.Failures == 0 {
		t.Error("no failures; test is vacuous")
	}
}

func TestXUnderPostOrderAdversary(t *testing.T) {
	algX := writeall.NewX()
	adv := writeall.NewPostOrder(algX.Layout(64, 64))
	got := run(t, pram.Config{N: 64, P: 64}, algX, adv)
	if got.Failures == 0 || got.Restarts == 0 {
		t.Errorf("Failures = %d, Restarts = %d; post-order adversary must act",
			got.Failures, got.Restarts)
	}
}

func TestACCUnderStalkingFailStop(t *testing.T) {
	acc := writeall.NewACC(3)
	adv := writeall.NewStalking(acc.Layout(32, 8), false /* restartable */)
	got := run(t, pram.Config{N: 32, P: 8}, acc, adv)
	if got.Failures == 0 {
		t.Error("no failures; stalking adversary never fired")
	}
	if got.Restarts != 0 {
		t.Errorf("Restarts = %d, want 0 in the fail-stop variant", got.Restarts)
	}
}

func TestACCUnderStalkingWithRestarts(t *testing.T) {
	// Small P so that the all-touch coincidence ending the siege is
	// reachable within the tick budget.
	acc := writeall.NewACC(5)
	adv := writeall.NewStalking(acc.Layout(16, 2), true /* restartable */)
	got := run(t, pram.Config{N: 16, P: 2}, acc, adv)
	if got.Failures == 0 {
		t.Error("no failures; stalking adversary never fired")
	}
}

func TestObliviousSolvesWriteAll(t *testing.T) {
	tests := []struct {
		adv pram.Adversary
	}{
		{adv: adversary.None{}},
		{adv: adversary.NewRandom(0.3, 0.5, 9)},
		{adv: adversary.NewHalving()},
		{adv: &adversary.Thrashing{}},
	}
	for _, tt := range tests {
		t.Run(tt.adv.Name(), func(t *testing.T) {
			cfg := pram.Config{N: 64, P: 64, AllowSnapshot: true}
			run(t, cfg, writeall.NewOblivious(), tt.adv)
		})
	}
}

func TestUpdateCycleDisciplineHolds(t *testing.T) {
	// Every algorithm must keep within the paper's <=4 reads / <=2
	// writes per update cycle; the machine records the maxima.
	for _, alg := range algorithms() {
		t.Run(alg.Name(), func(t *testing.T) {
			adv := adversary.NewRandom(0.1, 0.5, 13)
			got := run(t, pram.Config{N: 100, P: 16}, alg, adv)
			if got.MaxReads > pram.MaxReadsPerCycle {
				t.Errorf("MaxReads = %d, want <= %d", got.MaxReads, pram.MaxReadsPerCycle)
			}
			if got.MaxWrites > pram.MaxWritesPerCycle {
				t.Errorf("MaxWrites = %d, want <= %d", got.MaxWrites, pram.MaxWritesPerCycle)
			}
		})
	}
}

func TestDeterministicAlgorithmsAreReproducible(t *testing.T) {
	// Same algorithm, same (deterministic) adversary, same seed: metrics
	// must match exactly.
	mk := func() pram.Metrics {
		adv := adversary.NewRandom(0.15, 0.4, 99)
		adv.Points = []pram.FailPoint{pram.FailBeforeReads, pram.FailAfterReads}
		return run(t, pram.Config{N: 96, P: 24}, writeall.NewCombined(), adv)
	}
	a, b := mk(), mk()
	if a != b {
		t.Errorf("metrics differ across identical runs:\n  a = %+v\n  b = %+v", a, b)
	}
}

func TestTrivialUnderThrashingIsQuadraticInSPrime(t *testing.T) {
	// Example 2.2: with P = N and the thrashing adversary, the trivial
	// algorithm completes in ~N ticks with S ~ N but S' ~ N*P.
	const n = 32
	got := run(t, pram.Config{N: n, P: n}, writeall.NewTrivial(), &adversary.Thrashing{})
	if got.S() > 4*n {
		t.Errorf("S = %d, want O(N) = about %d", got.S(), n)
	}
	if got.SPrime() < int64(n)*(n-1)/2 {
		t.Errorf("S' = %d, want Omega(N*P) under thrashing", got.SPrime())
	}
}

func TestSequentialWorkIsNPlusWaits(t *testing.T) {
	const n = 50
	got := run(t, pram.Config{N: n, P: 4}, writeall.NewSequential(), adversary.None{})
	// pid 0 does n writes plus one halting read-free cycle; pids 1-3
	// halt after one cycle each.
	if got.Completed > int64(n)+8 {
		t.Errorf("Completed = %d, want about %d", got.Completed, n)
	}
}
