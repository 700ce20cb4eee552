package advlab

import (
	"reflect"
	"testing"

	failstop "repro"
	"repro/internal/adversary"
	"repro/internal/pram"
)

// runAlg drives one machine to completion stepping per tick (batch
// <= 1) or through TickBatch in `batch`-tick chunks, returning the
// final metrics and the machine for inspection.
func runAlg(t *testing.T, alg pram.Algorithm, n, p, batch int, adv pram.Adversary) (pram.Metrics, *pram.Machine) {
	t.Helper()
	return runAlgSink(t, alg, n, p, batch, adv, nil)
}

// runAlgSink is runAlg with sink attached to the machine.
func runAlgSink(t *testing.T, alg pram.Algorithm, n, p, batch int, adv pram.Adversary, sink pram.Sink) (pram.Metrics, *pram.Machine) {
	t.Helper()
	m, err := pram.New(pram.Config{N: n, P: p, MaxTicks: 1 << 16, Sink: sink}, alg, adv)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for {
		var done bool
		if batch > 1 {
			_, done, err = m.TickBatch(batch)
		} else {
			done, err = m.Step()
		}
		if err != nil {
			t.Fatalf("advance: %v", err)
		}
		if done {
			return m.Metrics(), m
		}
	}
}

func TestCompiledWindowKillsOnce(t *testing.T) {
	s := windowStrategy(2, 5, []int{0, 1})
	got, m := runAlg(t, failstop.NewX(), 64, 4, 0, MustCompile(s))
	m.Close()
	if got.Failures != 2 || got.Restarts != 0 {
		t.Errorf("F/R = %d/%d, want 2/0 (window kills once, no restarts)", got.Failures, got.Restarts)
	}
}

func TestCompiledRestartAfterAndBudget(t *testing.T) {
	s := Strategy{Name: "flap", Rules: []Rule{{
		Trigger:      Trigger{Kind: TriggerAlways},
		Target:       Target{Kind: TargetPIDs, PIDs: []int{0}},
		RestartAfter: 2,
		Budget:       Budget{MaxEvents: 3},
	}}}
	c := MustCompile(s)
	got, m := runAlg(t, failstop.NewX(), 64, 4, 0, c)
	m.Close()
	// Kill at tick 0, restart at tick 2 (two ticks dead), re-kill at
	// tick 3, budget of 3 exhausted: quiescent forever after.
	if got.Failures != 2 || got.Restarts != 1 {
		t.Errorf("F/R = %d/%d, want 2/1 (kill, restart, kill, budget out)", got.Failures, got.Restarts)
	}
	if q := c.QuiescentFor(100); q < 1<<30 {
		t.Errorf("QuiescentFor after budget exhaustion = %d, want forever", q)
	}
}

func TestCompiledMaxDeadWithholdsKills(t *testing.T) {
	s := Strategy{Name: "cap", Rules: []Rule{{
		Trigger: Trigger{Kind: TriggerAlways},
		Target:  Target{Kind: TargetPIDs, PIDs: []int{0, 1, 2}},
		Budget:  Budget{MaxDead: 1},
	}}}
	got, m := runAlg(t, failstop.NewX(), 64, 4, 0, MustCompile(s))
	m.Close()
	if got.Failures != 1 {
		t.Errorf("Failures = %d, want 1 (max one concurrently dead)", got.Failures)
	}
}

func TestCompiledAllButOneSparesRotatingSurvivor(t *testing.T) {
	s := Strategy{Name: "thrash3", Rules: []Rule{{
		Trigger: Trigger{Kind: TriggerAlways},
		Target:  Target{Kind: TargetAllButOne},
		Budget:  Budget{MaxEvents: 3},
	}}}
	got, m := runAlg(t, failstop.NewX(), 64, 4, 0, MustCompile(s))
	m.Close()
	// Tick 0 spares pid 0 and kills 1, 2, 3, exhausting the budget.
	if got.Failures != 3 {
		t.Errorf("Failures = %d, want 3", got.Failures)
	}
	if got.Vetoes != 0 {
		t.Errorf("Vetoes = %d, want 0 (the survivor keeps the tick legal)", got.Vetoes)
	}
}

// TestCompiledSnapshotRoundTrip pins the Snapshotter contract: a run
// checkpointed mid-flight and restored into a freshly compiled copy of
// the same spec finishes with bit-identical metrics and adversary
// state, including the (seed, draws) stream position of TargetRandom.
func TestCompiledSnapshotRoundTrip(t *testing.T) {
	spec := Strategy{Name: "rnd", Seed: 11, Rules: []Rule{{
		Trigger:      Trigger{Kind: TriggerEvery, Period: 3, Duty: 1},
		Target:       Target{Kind: TargetRandom, K: 2},
		RestartAfter: 2,
		Budget:       Budget{MaxEvents: 12},
	}}}
	cfg := pram.Config{N: 128, P: 4, MaxTicks: 1 << 16}

	ref := MustCompile(spec)
	m1, err := pram.New(cfg, failstop.NewTrivial(), ref)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer m1.Close()
	for i := 0; i < 10; i++ {
		if done, err := m1.Step(); err != nil || done {
			t.Fatalf("reference run ended early at step %d (done=%v, err=%v)", i, done, err)
		}
	}
	snap, err := m1.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	restored := MustCompile(spec)
	m2, err := pram.New(cfg, failstop.NewTrivial(), restored)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer m2.Close()
	if err := m2.RestoreSnapshot(snap); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if !reflect.DeepEqual(restored.SnapshotState(), ref.SnapshotState()) {
		t.Fatalf("adversary state diverged at restore:\n got %v\nwant %v",
			restored.SnapshotState(), ref.SnapshotState())
	}

	finish := func(m *pram.Machine) pram.Metrics {
		for {
			done, err := m.Step()
			if err != nil {
				t.Fatalf("Step: %v", err)
			}
			if done {
				return m.Metrics()
			}
		}
	}
	got, want := finish(m2), finish(m1)
	if got != want {
		t.Errorf("restored run metrics = %+v, want %+v", got, want)
	}
	if !reflect.DeepEqual(restored.SnapshotState(), ref.SnapshotState()) {
		t.Errorf("final adversary state diverged:\n got %v\nwant %v",
			restored.SnapshotState(), ref.SnapshotState())
	}
}

// TestQuiescenceConformanceGrid is the conformance suite over every
// pram.Quiescence implementation in the tree: for each adversary, a
// TickBatch-driven run (which skips Decide across claimed quiet
// windows) must be bit-identical to the per-tick Step run — same
// metrics, same final memory, same clock, and the same adversary
// snapshot words (for seeded adversaries, the same (seed, draws)
// stream position). An over-claiming QuiescentFor shows up here as a
// metrics or state divergence. Every entry must also let the batched run
// commit a quiet window longer than one tick, so an adversary that
// silently stops claiming quiescence fails here too, not only one that
// over-claims.
func TestQuiescenceConformanceGrid(t *testing.T) {
	const n, p = 256, 4
	events := []adversary.Event{
		{Tick: 3, PID: 1, Kind: adversary.Fail},
		{Tick: 9, PID: 1, Kind: adversary.Restart},
		{Tick: 20, PID: 2, Kind: adversary.Fail, Point: pram.FailAfterReads},
	}
	budgetedRandom := func() pram.Adversary {
		r := adversary.NewRandom(0.2, 0.8, 7)
		r.MaxEvents = 10
		return r
	}
	grid := []struct {
		name string
		mk   func() pram.Adversary
	}{
		{"none", func() pram.Adversary { return adversary.None{} }},
		{"scheduled", func() pram.Adversary { return adversary.NewScheduled(events) }},
		{"random-budgeted", budgetedRandom},
		{"recorder", func() pram.Adversary { return adversary.NewRecorder(adversary.NewScheduled(events)) }},
		{"dsl-window", func() pram.Adversary {
			return MustCompile(Strategy{Name: "w", Rules: []Rule{{
				Trigger:      Trigger{Kind: TriggerWindow, From: 4, To: 8},
				Target:       Target{Kind: TargetPIDs, PIDs: []int{0, 2}},
				RestartAfter: 3,
				Budget:       Budget{MaxEvents: 6},
			}}})
		}},
		{"dsl-every", func() pram.Adversary {
			return MustCompile(Strategy{Name: "e", Seed: 5, Rules: []Rule{{
				Trigger: Trigger{Kind: TriggerEvery, Period: 10, Duty: 2},
				Target:  Target{Kind: TargetRandom, K: 1},
				Budget:  Budget{MaxEvents: 4},
			}}})
		}},
		{"dsl-multi", func() pram.Adversary {
			return MustCompile(Strategy{Name: "m", Seed: 9, Rules: []Rule{
				{
					Trigger: Trigger{Kind: TriggerWindow, From: 2, To: 5},
					Target:  Target{Kind: TargetRotate, K: 2, Step: 1},
					Point:   PointAfterReads,
				},
				{
					Trigger:      Trigger{Kind: TriggerEvery, Period: 6, Duty: 1},
					Target:       Target{Kind: TargetRandom, K: 1},
					RestartAfter: 1,
					Budget:       Budget{MaxEvents: 8},
				},
			}})
		}},
	}
	for _, g := range grid {
		g := g
		t.Run(g.name, func(t *testing.T) {
			stepAdv, batchAdv := g.mk(), g.mk()
			if _, ok := stepAdv.(pram.Quiescence); !ok {
				t.Fatalf("grid entry %s does not implement pram.Quiescence", g.name)
			}
			mStep, machStep := runAlg(t, failstop.NewTrivial(), n, p, 0, stepAdv)
			defer machStep.Close()
			windows := &windowSink{}
			mBatch, machBatch := runAlgSink(t, failstop.NewTrivial(), n, p, 7, batchAdv, windows)
			defer machBatch.Close()
			if windows.longest < 2 {
				t.Errorf("batched run committed no quiet window longer than one tick (longest %d)", windows.longest)
			}

			if mStep != mBatch {
				t.Errorf("metrics diverged:\n step  %+v\n batch %+v", mStep, mBatch)
			}
			if machStep.Tick() != machBatch.Tick() {
				t.Errorf("clock diverged: step %d, batch %d", machStep.Tick(), machBatch.Tick())
			}
			for addr := 0; addr < n; addr++ {
				if a, b := machStep.Memory().Load(addr), machBatch.Memory().Load(addr); a != b {
					t.Fatalf("memory diverged at %d: step %d, batch %d", addr, a, b)
				}
			}
			ss, _ := stepAdv.(pram.Snapshotter)
			bs, _ := batchAdv.(pram.Snapshotter)
			if (ss == nil) != (bs == nil) {
				t.Fatalf("snapshot support diverged")
			}
			if ss != nil && !reflect.DeepEqual(ss.SnapshotState(), bs.SnapshotState()) {
				t.Errorf("adversary snapshot diverged:\n step  %v\n batch %v",
					ss.SnapshotState(), bs.SnapshotState())
			}
		})
	}
}

// windowSink is a pram.BatchSink that keeps the length of the longest
// quiet window TickBatch committed.
type windowSink struct{ longest int }

func (*windowSink) CycleDone(pram.CycleEvent) {}
func (*windowSink) TickDone(pram.TickEvent)   {}
func (*windowSink) RunDone(pram.RunEvent)     {}
func (w *windowSink) BatchDone(ev pram.BatchEvent) {
	w.longest = max(w.longest, ev.Ticks)
}
