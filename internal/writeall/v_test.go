package writeall_test

import (
	"errors"
	"testing"

	"repro/internal/adversary"
	"repro/internal/pram"
	"repro/internal/writeall"
)

// TestVFailureFreeFinishesInOneIteration: with P = N and no failures,
// every block is allocated and written in the first iteration.
func TestVFailureFreeFinishesInOneIteration(t *testing.T) {
	const n = 128
	algV := writeall.NewV()
	lay := algV.Layout(n, n)
	got := run(t, pram.Config{N: n, P: n}, algV, adversary.None{})
	if got.Ticks > lay.IterationLength() {
		t.Errorf("Ticks = %d, want <= one iteration = %d", got.Ticks, lay.IterationLength())
	}
}

// TestVIterationCounterAdvances: the shared wrap-around counter increments
// once per iteration.
func TestVIterationCounterAdvances(t *testing.T) {
	const n = 64
	algV := writeall.NewV()
	lay := algV.Layout(n, 2) // few processors => several iterations
	m, err := pram.New(pram.Config{N: n, P: 2}, algV, adversary.None{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	lastIter := pram.Word(0)
	for {
		done, err := m.Step()
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		iter := m.Memory().Load(lay.Iter())
		if iter < lastIter {
			t.Fatalf("iteration counter went backwards: %d after %d", iter, lastIter)
		}
		if iter > lastIter+1 {
			t.Fatalf("iteration counter skipped: %d after %d", iter, lastIter)
		}
		lastIter = iter
		if done {
			break
		}
	}
	if lastIter < 2 {
		t.Errorf("iteration counter reached %d; want several iterations with P=2", lastIter)
	}
}

// TestVRestartedProcessorWaitsForWrapAround: a processor restarted
// mid-iteration contributes no block mark until the next iteration starts.
func TestVRestartedProcessorWaitsForWrapAround(t *testing.T) {
	const n = 64
	// P = 2: fail processor 1 on tick 1 (mid-iteration), restart it
	// immediately; it must idle until the wrap-around.
	pattern := []adversary.Event{
		{Tick: 1, PID: 1, Kind: adversary.Fail},
		{Tick: 2, PID: 1, Kind: adversary.Restart},
	}
	got := run(t, pram.Config{N: n, P: 2}, writeall.NewV(), adversary.NewScheduled(pattern))
	if got.Failures != 1 || got.Restarts != 1 {
		t.Fatalf("F/R = %d/%d, want 1/1", got.Failures, got.Restarts)
	}
}

// TestVStallsUnderRotatingThrasher: the motivating weakness (Section 4.1):
// if no processor survives a whole iteration, V never terminates.
func TestVStallsUnderRotatingThrasher(t *testing.T) {
	const n = 64
	m, err := pram.New(pram.Config{N: n, P: n, MaxTicks: 20 * n},
		writeall.NewV(), &adversary.Thrashing{Rotate: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := m.Run(); !errors.Is(err, pram.ErrTickLimit) {
		t.Fatalf("Run err = %v, want ErrTickLimit (V must stall)", err)
	}
	if writeall.Verify(m.Memory(), n) {
		t.Error("array completed despite the rotating thrasher; V should make no block progress")
	}
	// The stall is the algorithm's weakness, not the adversary's fault:
	// the rotating thrasher always spares a survivor, so the contract
	// checker must stay silent — a livelock is legal, a kill-all is not.
	if vs := m.Violations(); len(vs) != 0 {
		t.Errorf("legal livelock misdiagnosed as contract violations: %v", vs)
	}
}

// TestVSurvivesFixedThrasher: with a fixed survivor, that survivor
// completes iterations alone and V terminates.
func TestVSurvivesFixedThrasher(t *testing.T) {
	run(t, pram.Config{N: 64, P: 8}, writeall.NewV(), &adversary.Thrashing{})
}

// TestVWorkBoundFailureFree: Lemma 4.2's bound at M = 0 across processor
// regimes.
func TestVWorkBoundFailureFree(t *testing.T) {
	tests := []struct{ n, p int }{
		{n: 256, p: 256},
		{n: 256, p: 16},
		{n: 256, p: 1},
		{n: 1024, p: 64},
	}
	for _, tt := range tests {
		got := run(t, pram.Config{N: tt.n, P: tt.p}, writeall.NewV(), adversary.None{})
		l2 := float64(writeall.Log2(writeall.NextPow2(tt.n)))
		bound := float64(tt.n) + float64(tt.p)*l2*l2
		if float64(got.S()) > 4*bound {
			t.Errorf("N=%d P=%d: S = %d exceeds 4*(N + P log^2 N) = %.0f",
				tt.n, tt.p, got.S(), 4*bound)
		}
	}
}

// TestWEnumerationAdaptsAllocation: after processors die, W's next
// iteration re-enumerates the survivors, so it still finishes efficiently.
func TestWEnumerationAdaptsAllocation(t *testing.T) {
	const n = 256
	// Kill half the processors at tick 2 and never restart them.
	var pattern []adversary.Event
	for pid := 8; pid < 16; pid++ {
		pattern = append(pattern, adversary.Event{Tick: 2, PID: pid, Kind: adversary.Fail})
	}
	got := run(t, pram.Config{N: n, P: 16}, writeall.NewW(), adversary.NewScheduled(pattern))
	if got.Failures != 8 {
		t.Fatalf("Failures = %d, want 8", got.Failures)
	}
}

// TestWFailureFreeWorkComparableToV: with no failures W and V do similar
// work (W pays extra for enumeration).
func TestWFailureFreeWorkComparableToV(t *testing.T) {
	const n, p = 512, 32
	sw := run(t, pram.Config{N: n, P: p}, writeall.NewW(), adversary.None{}).S()
	sv := run(t, pram.Config{N: n, P: p}, writeall.NewV(), adversary.None{}).S()
	if sw < sv {
		t.Errorf("W's work %d < V's %d; W pays for enumeration and cannot be cheaper", sw, sv)
	}
	if sw > 4*sv {
		t.Errorf("W's work %d > 4x V's %d; enumeration overhead should be a constant factor", sw, sv)
	}
}

// TestWSingleProcessor covers the degenerate enumeration (Lp = 0) path.
func TestWSingleProcessor(t *testing.T) {
	run(t, pram.Config{N: 40, P: 1}, writeall.NewW(), adversary.None{})
}

// TestVSingleBlock covers the degenerate allocation (Lb = 0) path.
func TestVSingleBlock(t *testing.T) {
	for _, alg := range []pram.Algorithm{writeall.NewV(), writeall.NewW()} {
		run(t, pram.Config{N: 5, P: 3}, alg, adversary.NewRandom(0.2, 0.5, 3))
	}
}

// TestVPostconditionProperty: V under budgeted random failure/restart
// patterns (bounded |F| keeps termination guaranteed in practice).
func TestVPostconditionProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		adv := adversary.NewRandom(0.2, 0.8, seed)
		adv.MaxEvents = 200
		run(t, pram.Config{N: 100, P: 10}, writeall.NewV(), adv)
	}
}

// TestWReEnumerationRebalancesAfterMassFailure: W's whole reason to
// enumerate is to spread the surviving processors over the remaining work.
// Kill the upper half of the processors after the first iteration and
// check that the survivors' useful work stays balanced.
func TestWReEnumerationRebalancesAfterMassFailure(t *testing.T) {
	const n, p = 512, 16
	lay := writeall.NewWLayout(n, p)
	killTick := lay.WIterationLength() // start of iteration 2
	var pattern []adversary.Event
	for pid := p / 2; pid < p; pid++ {
		pattern = append(pattern, adversary.Event{Tick: killTick, PID: pid, Kind: adversary.Fail})
	}
	tracker := pram.NewProcTracker(p)
	m, err := pram.New(pram.Config{N: n, P: p, Sink: tracker},
		writeall.NewW(), adversary.NewScheduled(pattern))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !writeall.Verify(m.Memory(), n) {
		t.Fatal("postcondition violated")
	}
	progress := tracker.Progress()
	// Survivors (lower half) must share the remaining work within a
	// small factor of each other: re-enumeration gives them fresh,
	// contiguous ranks.
	minW, maxW := progress[0], progress[0]
	for pid := 1; pid < p/2; pid++ {
		if progress[pid] < minW {
			minW = progress[pid]
		}
		if progress[pid] > maxW {
			maxW = progress[pid]
		}
	}
	if minW == 0 {
		t.Fatalf("a survivor did no useful work: %v", progress[:p/2])
	}
	if maxW > 4*minW {
		t.Errorf("survivor loads unbalanced: min %d, max %d (%v)", minW, maxW, progress[:p/2])
	}
}
