package adversary_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/pram"
	"repro/internal/writeall"
)

func runX(t *testing.T, n, p int, adv pram.Adversary) pram.Metrics {
	t.Helper()
	m, err := pram.New(pram.Config{N: n, P: p}, writeall.NewX(), adv)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, err := m.Run()
	if err != nil {
		t.Fatalf("Run under %s: %v", adv.Name(), err)
	}
	if !writeall.Verify(m.Memory(), n) {
		t.Fatalf("postcondition violated under %s", adv.Name())
	}
	return got
}

func TestNoneIssuesNothing(t *testing.T) {
	got := runX(t, 64, 64, adversary.None{})
	if got.FSize() != 0 {
		t.Errorf("|F| = %d, want 0", got.FSize())
	}
}

func TestScheduledReplaysPattern(t *testing.T) {
	pattern := []adversary.Event{
		{Tick: 1, PID: 3, Kind: adversary.Fail},
		{Tick: 1, PID: 5, Kind: adversary.Fail, Point: pram.FailAfterReads},
		{Tick: 4, PID: 3, Kind: adversary.Restart},
		{Tick: 4, PID: 5, Kind: adversary.Restart},
	}
	got := runX(t, 32, 8, adversary.NewScheduled(pattern))
	if got.Failures != 2 {
		t.Errorf("Failures = %d, want 2", got.Failures)
	}
	if got.Restarts != 2 {
		t.Errorf("Restarts = %d, want 2", got.Restarts)
	}
	// The FailAfterReads event produces exactly one incomplete cycle.
	if got.Incomplete != 1 {
		t.Errorf("Incomplete = %d, want 1", got.Incomplete)
	}
}

func TestScheduledIgnoresBogusEvents(t *testing.T) {
	pattern := []adversary.Event{
		{Tick: 0, PID: 99, Kind: adversary.Restart}, // not dead
		{Tick: 2, PID: -1, Kind: adversary.Fail},    // out of range
	}
	got := runX(t, 16, 4, adversary.NewScheduled(pattern))
	if got.Restarts != 0 {
		t.Errorf("Restarts = %d, want 0", got.Restarts)
	}
}

func TestRandomIsDeterministicPerSeed(t *testing.T) {
	run := func() pram.Metrics {
		return runX(t, 64, 16, adversary.NewRandom(0.2, 0.5, 77))
	}
	if a, b := run(), run(); a != b {
		t.Errorf("runs differ:\n  a = %+v\n  b = %+v", a, b)
	}
}

func TestRandomSeedsDiffer(t *testing.T) {
	a := runX(t, 64, 16, adversary.NewRandom(0.2, 0.5, 1))
	b := runX(t, 64, 16, adversary.NewRandom(0.2, 0.5, 2))
	if a == b {
		t.Error("different seeds produced identical metrics; suspicious")
	}
}

func TestRandomRespectsEventBudget(t *testing.T) {
	adv := adversary.NewRandom(0.5, 0.9, 13)
	adv.MaxEvents = 10
	got := runX(t, 128, 32, adv)
	if got.FSize() > 10 {
		t.Errorf("|F| = %d, want <= 10", got.FSize())
	}
	if got.FSize() == 0 {
		t.Error("|F| = 0; budget never used")
	}
}

func TestThrashingAdmitsOneCyclePerTick(t *testing.T) {
	got := runX(t, 32, 32, &adversary.Thrashing{})
	if got.Completed != int64(got.Ticks) {
		t.Errorf("Completed = %d over %d ticks; want exactly one per tick",
			got.Completed, got.Ticks)
	}
	// Everyone else is killed after reads: S' ~ P per tick.
	if got.Incomplete == 0 {
		t.Error("Incomplete = 0; thrashing must kill mid-cycle")
	}
}

func TestThrashingRotateSpreadsSurvivors(t *testing.T) {
	// Under the rotating thrasher, survivors rotate with the clock; the
	// run still finishes because X progresses one cycle per tick.
	got := runX(t, 32, 32, &adversary.Thrashing{Rotate: true})
	if got.Completed != int64(got.Ticks) {
		t.Errorf("Completed = %d over %d ticks; want exactly one per tick",
			got.Completed, got.Ticks)
	}
}

func TestHalvingForcesNLogNWork(t *testing.T) {
	const n = 256
	got := runX(t, n, n, adversary.NewHalving())
	// Theorem 3.1: S >= c * N log N. log2(256) = 8.
	if got.S() < n*8 {
		t.Errorf("S = %d, want >= N log N = %d", got.S(), n*8)
	}
}

func TestHalvingScalesSuperLinearly(t *testing.T) {
	s128 := runX(t, 128, 128, adversary.NewHalving()).S()
	s512 := runX(t, 512, 512, adversary.NewHalving()).S()
	// N log N growth: quadrupling N must grow S by more than 4x.
	if s512 <= 4*s128 {
		t.Errorf("S(512) = %d <= 4*S(128) = %d; want super-linear growth", s512, 4*s128)
	}
}

func TestHalvingNoRestartsLeavesProcessorsDead(t *testing.T) {
	adv := adversary.NewHalving()
	adv.NoRestarts = true
	got := runX(t, 128, 128, adv)
	if got.Restarts != 0 {
		t.Errorf("Restarts = %d, want 0", got.Restarts)
	}
	if got.Failures == 0 {
		t.Error("Failures = 0; adversary never fired")
	}
}

func TestAdversaryNames(t *testing.T) {
	tests := []struct {
		give pram.Adversary
		want string
	}{
		{give: adversary.None{}, want: "none"},
		{give: adversary.NewRandom(0, 0, 0), want: "random"},
		{give: &adversary.Thrashing{}, want: "thrashing"},
		{give: &adversary.Thrashing{Rotate: true}, want: "thrashing-rotating"},
		{give: adversary.NewHalving(), want: "halving"},
		{give: &adversary.Halving{NoRestarts: true}, want: "halving-failstop"},
		{give: adversary.NewScheduled(nil), want: "scheduled"},
	}
	for _, tt := range tests {
		if got := tt.give.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
	}
}
