package bench

import (
	"context"
	"math"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/pram"
	"repro/internal/prog"
	"repro/internal/writeall"
)

// The tests in this file pin the paper's quantitative shapes as regression
// guards: if a change to an algorithm or to the machine semantics moves a
// growth exponent or a bound ratio out of its theorem's window, these fail
// long before a human rereads EXPERIMENTS.md.

// mustWA runs one Write-All point and fails the test on any run error.
func mustWA(t *testing.T, cfg pram.Config, alg pram.Algorithm, adv pram.Adversary) pram.Metrics {
	t.Helper()
	m, err := Sweep{}.runWA(context.Background(), cfg, alg, adv)
	if err != nil {
		t.Fatalf("runWA(%s vs %s): %v", alg.Name(), adv.Name(), err)
	}
	return m
}

func TestShapeTheorem31LowerBound(t *testing.T) {
	// S >= c * N log N with c not degenerating, for the main algorithms.
	const n = 512
	for _, mk := range []func() pram.Algorithm{
		func() pram.Algorithm { return writeall.NewX() },
		func() pram.Algorithm { return writeall.NewCombined() },
	} {
		alg := mk()
		got := mustWA(t, pram.Config{N: n, P: n}, alg, adversary.NewHalving())
		c := float64(got.S()) / (float64(n) * log2(n))
		if c < 1.0 {
			t.Errorf("%s: S/(N log N) = %.2f, want >= 1 (Theorem 3.1 must bind)", alg.Name(), c)
		}
	}
}

func TestShapeTheorem32UpperBound(t *testing.T) {
	const n = 512
	got := mustWA(t, pram.Config{N: n, P: n, AllowSnapshot: true},
		writeall.NewOblivious(), adversary.NewHalving())
	c := float64(got.S()) / (float64(n) * log2(n))
	if c > 2.0 {
		t.Errorf("oblivious S/(N log N) = %.2f, want O(1) constant (Theorem 3.2)", c)
	}
}

func TestShapeTheorem48DoublingRatio(t *testing.T) {
	sOf := func(n int) float64 {
		algX := writeall.NewX()
		adv := writeall.NewPostOrder(algX.Layout(n, n))
		return float64(mustWA(t, pram.Config{N: n, P: n}, algX, adv).S())
	}
	r1 := sOf(256) / sOf(128)
	r2 := sOf(512) / sOf(256)
	for _, r := range []float64{r1, r2} {
		if r < 2.8 || r > 3.6 {
			t.Errorf("post-order doubling ratio = %.2f, want ~3 (the 3 S(N/2) recurrence)", r)
		}
	}
	if r2 > r1 {
		t.Errorf("doubling ratio rising (%.2f -> %.2f); should approach 3 from above", r1, r2)
	}
}

func TestShapeTheorem47ProcessorExponent(t *testing.T) {
	const n = 512
	var xs, ys []float64
	for p := 8; p <= n; p *= 4 {
		algX := writeall.NewX()
		adv := writeall.NewPostOrder(algX.Layout(n, p))
		got := mustWA(t, pram.Config{N: n, P: p}, algX, adv)
		xs = append(xs, float64(p))
		ys = append(ys, float64(got.S()))
	}
	exp := Slope(xs, ys)
	// Theorem 4.7's exponent is log2(1.5) ~ 0.585; allow a window.
	if exp < 0.4 || exp > 0.8 {
		t.Errorf("S vs P exponent = %.3f, want ~0.585 (Theorem 4.7)", exp)
	}
}

func TestShapeTheorem43MarginalEventCost(t *testing.T) {
	const n = 1024
	p := 8
	s0 := mustWA(t, pram.Config{N: n, P: p}, writeall.NewV(), adversary.None{}).S()
	r := adversary.NewRandom(0.4, 0.9, 17)
	r.MaxEvents = 2048
	r.Points = []pram.FailPoint{pram.FailBeforeReads, pram.FailAfterReads}
	got := mustWA(t, pram.Config{N: n, P: p}, writeall.NewV(), r)
	marginal := float64(got.S()-s0) / (float64(got.FSize()) * log2(n))
	if marginal > 1.0 {
		t.Errorf("V marginal cost per event = %.2f log N, want O(log N) with small constant", marginal)
	}
}

func TestShapeCorollary412WorkOptimality(t *testing.T) {
	ratio := func(n int) float64 {
		l2 := int(log2(n))
		p := max(1, n/(l2*l2))
		pr := prog.PrefixSum{N: n}
		m, err := core.NewMachine(pr, p, adversary.None{}, pram.Config{})
		if err != nil {
			t.Fatalf("NewMachine: %v", err)
		}
		got, err := m.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return float64(got.S()) / (float64(pr.Steps()) * float64(n))
	}
	r256, r2048 := ratio(256), ratio(2048)
	if r2048 > 1.5*r256 {
		t.Errorf("S/(tau N) grew %.2f -> %.2f; the V+X engine must be work-optimal (flat)",
			r256, r2048)
	}
	if r2048 > 20 {
		t.Errorf("S/(tau N) = %.2f; constant too large for Cor 4.12", r2048)
	}
}

func TestShapeCorollary411SigmaFallsWithF(t *testing.T) {
	const n = 256
	pr := prog.ReduceSum{N: n}
	sig := func(maxEvents int64) float64 {
		var adv pram.Adversary = adversary.None{}
		if maxEvents > 0 {
			r := adversary.NewRandom(0.45, 0.9, 37)
			r.MaxEvents = maxEvents
			adv = r
		}
		m, err := core.NewMachine(pr, n, adv, pram.Config{})
		if err != nil {
			t.Fatalf("NewMachine: %v", err)
		}
		got, err := m.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return stepOverhead(got, pr.Steps())
	}
	small := sig(0)
	big := sig(int64(pr.Steps()) * int64(math.Pow(float64(n), 1.6)))
	if big >= small/4 {
		t.Errorf("sigma fell only %.1f -> %.1f; Cor 4.11 expects a sharp drop", small, big)
	}
}

func TestShapeExample22Quadratic(t *testing.T) {
	const n = 128
	got := mustWA(t, pram.Config{N: n, P: n}, writeall.NewTrivial(), &adversary.Thrashing{})
	sPrimeRatio := float64(got.SPrime()) / float64(n*n)
	sRatio := float64(got.S()) / float64(n)
	if sPrimeRatio < 0.25 {
		t.Errorf("S'/(N*P) = %.2f; thrashing must be quadratic in S'", sPrimeRatio)
	}
	if sRatio > 4 {
		t.Errorf("S/N = %.2f; completed work must stay linear under thrashing", sRatio)
	}
}
