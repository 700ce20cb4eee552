package adversary_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/advlab"
	"repro/internal/obs"
	"repro/internal/pram"
	"repro/internal/writeall"
)

// TestWindowEnablesTickBatch is the regression for the quiescence-
// forwarding bug: a windowed or wrapping adversary that does not
// implement pram.Quiescence makes a batched run silently fall back to
// per-tick stepping — every run still passes equivalence, but
// Machine.TickBatch never opens a single quiet window. A window-trigger
// strategy whose window has closed, bare or behind the Recorder wrapper,
// must let the machine commit multi-tick batch windows, visible in the
// obs counters.
func TestWindowEnablesTickBatch(t *testing.T) {
	reg := obs.NewRegistry()
	pram.EnableObs(reg)

	run := func(adv pram.Adversary) float64 {
		t.Helper()
		before, _ := reg.Value(obs.MetricBatches)
		r := &pram.Runner{BatchTicks: 64}
		if _, err := r.Run(pram.Config{N: 256, P: 4, MaxTicks: 1 << 16}, writeall.NewTrivial(), adv); err != nil {
			t.Fatalf("run under %s: %v", adv.Name(), err)
		}
		after, _ := reg.Value(obs.MetricBatches)
		return after - before
	}

	window := func() pram.Adversary {
		return advlab.MustCompile(advlab.Strategy{Name: "w", Rules: []advlab.Rule{{
			Trigger:      advlab.Trigger{Kind: advlab.TriggerWindow, From: 2, To: 4},
			Target:       advlab.Target{Kind: advlab.TargetPIDs, PIDs: []int{1}},
			RestartAfter: 1,
		}}})
	}
	if got := run(window()); got < 1 {
		t.Errorf("windowed run committed %v batch windows, want >= 1 (quiet after the window closes)", got)
	}
	if v, _ := reg.Value(obs.MetricBatchWindow); v <= 1 {
		t.Errorf("last batch window = %v ticks, want > 1", v)
	}

	if got := run(adversary.NewRecorder(window())); got < 1 {
		t.Errorf("recorded windowed run committed %v batch windows, want >= 1 (Recorder forwards quiescence)", got)
	}
}
