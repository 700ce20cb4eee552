package core_test

import (
	"context"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/pram"
	"repro/internal/prog"
)

func TestStepMetricsSumToTotals(t *testing.T) {
	cp := prog.PrefixSum{N: 64}
	adv := adversary.NewRandom(0.1, 0.5, 19)
	total, steps, err := core.RunWithStepMetrics(context.Background(), cp, 64, adv, pram.Config{}, core.EngineVX)
	if err != nil {
		t.Fatalf("RunWithStepMetrics: %v", err)
	}
	if len(steps) != cp.Steps() {
		t.Fatalf("len(steps) = %d, want %d", len(steps), cp.Steps())
	}
	var s, f int64
	var ticks int
	for _, sm := range steps {
		s += sm.S
		f += sm.F
		ticks += sm.Ticks
	}
	if s != total.S() {
		t.Errorf("sum of step S = %d, total = %d", s, total.S())
	}
	if f != total.FSize() {
		t.Errorf("sum of step F = %d, total = %d", f, total.FSize())
	}
	if ticks != total.Ticks {
		t.Errorf("sum of step ticks = %d, total = %d", ticks, total.Ticks)
	}
}

func TestStepMetricsEveryStepDoesWork(t *testing.T) {
	cp := prog.ReduceSum{N: 32}
	_, steps, err := core.RunWithStepMetrics(context.Background(), cp, 32, adversary.None{}, pram.Config{}, core.EngineVX)
	if err != nil {
		t.Fatalf("RunWithStepMetrics: %v", err)
	}
	for _, sm := range steps {
		if sm.S == 0 {
			t.Errorf("step %d attributed no work", sm.Step)
		}
		if sm.Ticks == 0 {
			t.Errorf("step %d attributed no ticks", sm.Step)
		}
	}
}

func TestMaxStepSigmaBoundedByLog2N(t *testing.T) {
	const n = 256 // log^2 N = 64
	cp := prog.PrefixSum{N: n}
	adv := adversary.NewRandom(0.05, 0.5, 29)
	adv.MaxEvents = int64(cp.Steps() * n / 8)
	_, steps, err := core.RunWithStepMetrics(context.Background(), cp, n, adv, pram.Config{}, core.EngineVX)
	if err != nil {
		t.Fatalf("RunWithStepMetrics: %v", err)
	}
	sigma := core.MaxStepSigma(steps, n)
	if sigma <= 0 {
		t.Fatal("sigma = 0; nothing measured")
	}
	// Theorem 4.1: sigma = O(log^2 N); allow constant 3.
	if sigma > 3*8*8 {
		t.Errorf("max per-step sigma = %.1f, want O(log^2 N) = about %d", sigma, 8*8)
	}
}

func TestStepMetricsSurfaceRunErrors(t *testing.T) {
	cp := prog.PrefixSum{N: 16}
	// Impossible budget: force a tick-limit error through the helper.
	_, _, err := core.RunWithStepMetrics(context.Background(), cp, 1, &adversary.Thrashing{Rotate: true},
		pram.Config{MaxTicks: 3}, core.EngineVX)
	if err == nil {
		t.Fatal("want error from truncated run")
	}
}
