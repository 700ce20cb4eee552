package failstop

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/pram"
)

// resumeBaselineAndSuffix runs alg vs adv twice: once uninterrupted
// (recording the full trace), and once stepped to roughly the midpoint,
// snapshotted through the binary serialization round-trip, and restored
// into a third, freshly constructed machine that runs to completion. It
// returns the baseline truncated to the resumed suffix and the resumed
// run, both as kernelRun values for assertRunsEqual.
func resumeBaselineAndSuffix(t *testing.T, mkAlg func() Algorithm, mkAdv func() Adversary, cfg Config) (want, resumed kernelRun) {
	t.Helper()

	baseline := runStepped(t, mkAlg, mkAdv, cfg)
	splitTick := baseline.metrics.Ticks / 2

	// Second machine: replay the first half of the run, snapshot.
	half, err := pram.New(cfg, mkAlg(), mkAdv())
	if err != nil {
		t.Fatalf("New (half run): %v", err)
	}
	defer half.Close()
	for half.Tick() < splitTick {
		done, err := half.Step()
		if err != nil {
			t.Fatalf("Step at tick %d: %v", half.Tick(), err)
		}
		if done {
			t.Fatalf("run completed at tick %d, before split tick %d", half.Tick(), splitTick)
		}
	}
	snap, err := half.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot at tick %d: %v", splitTick, err)
	}

	// Round-trip through the versioned binary format, as a resumed
	// process would.
	var buf bytes.Buffer
	if err := pram.WriteSnapshot(&buf, snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	loaded, err := pram.ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}

	// Third machine: fresh components, restore, run to completion.
	resumedCfg := cfg
	resumedCfg.Sink = &resumed.trace
	m, err := pram.New(resumedCfg, mkAlg(), mkAdv())
	if err != nil {
		t.Fatalf("New (resumed run): %v", err)
	}
	defer m.Close()
	if err := m.RestoreSnapshot(loaded); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	resumed.metrics, err = m.Run()
	if err != nil {
		resumed.err = err.Error()
	}
	resumed.mem = m.Memory().CopyInto(nil)

	// The resumed run must reproduce the baseline's outcome and the
	// trace suffix from the split tick on (cycle and tick events both
	// stamp the tick they belong to).
	want = kernelRun{metrics: baseline.metrics, mem: baseline.mem, err: baseline.err}
	want.trace.runs = baseline.trace.runs
	for _, ev := range baseline.trace.cycles {
		if ev.Tick >= splitTick {
			want.trace.cycles = append(want.trace.cycles, ev)
		}
	}
	for _, ev := range baseline.trace.ticks {
		if ev.Tick >= splitTick {
			want.trace.ticks = append(want.trace.ticks, ev)
		}
	}
	return want, resumed
}

// TestResumeEquivalence is the determinism contract of the checkpoint
// subsystem: for every Write-All algorithm x adversary pairing —
// including algorithms with private processor state (V, W, combined) and
// random streams (ACC, the random adversaries) — a run snapshotted at
// its midpoint, serialized, and resumed on a fresh machine is
// bit-identical to the uninterrupted run: same metrics, same final
// memory, same error, and the same event-trace suffix.
func TestResumeEquivalence(t *testing.T) {
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
		{"random-budgeted", func() Adversary { return BudgetedRandomFailures(0.3, 0.7, 13, 64) }},
		{"thrashing", func() Adversary { return ThrashingAdversary(false) }},
		{"rotating", func() Adversary { return ThrashingAdversary(true) }},
		{"halving", HalvingAdversary},
	}

	for _, alg := range algs {
		for _, adv := range advs {
			t.Run(alg.name+"/"+adv.name, func(t *testing.T) {
				want, resumed := resumeBaselineAndSuffix(t, alg.mk, adv.mk, alg.cfg)
				assertRunsEqual(t, "resumed", want, resumed)
			})
		}
	}

	// The tree-walking adversaries read algorithm X's progress-tree
	// layout out of shared memory, so they only pair with X.
	treeAdvs := []struct {
		name string
		mk   func() Adversary
	}{
		{"postorder", func() Adversary { return PostOrderAdversary(n, p) }},
		{"stalking", func() Adversary { return StalkingAdversary(n, p, true) }},
		{"stalking-failstop", func() Adversary { return StalkingAdversary(n, p, false) }},
	}
	for _, adv := range treeAdvs {
		t.Run("X/"+adv.name, func(t *testing.T) {
			want, resumed := resumeBaselineAndSuffix(t, NewX, adv.mk, base)
			assertRunsEqual(t, "resumed", want, resumed)
		})
	}
}

// TestResumeEquivalenceRecorded extends the contract to a recording
// adversary: a run snapshotted mid-way and resumed on a fresh machine
// must record the exact failure pattern the uninterrupted run records,
// so replay files from resumed runs are interchangeable with
// uninterrupted ones. The recorder follows the decision's order, so the
// raw patterns must be equal, within ticks too.
func TestResumeEquivalenceRecorded(t *testing.T) {
	cfg := Config{N: 64, P: 16, MaxTicks: 4000}
	const splitTick = 20
	mkRecorder := func() *adversary.Recorder {
		return adversary.NewRecorder(RandomFailures(0.25, 0.5, 21))
	}

	// Uninterrupted run.
	full := mkRecorder()
	m, err := pram.New(cfg, NewX(), full)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer m.Close()
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	// Interrupted run: snapshot at splitTick, resume on a fresh machine
	// with a fresh recorder (its recorded prefix is restored from the
	// snapshot).
	half := mkRecorder()
	mh, err := pram.New(cfg, NewX(), half)
	if err != nil {
		t.Fatalf("New (half): %v", err)
	}
	defer mh.Close()
	for mh.Tick() < splitTick {
		if done, err := mh.Step(); done || err != nil {
			t.Fatalf("Step: done=%v err=%v", done, err)
		}
	}
	snap, err := mh.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	resumed := mkRecorder()
	mr, err := pram.New(cfg, NewX(), resumed)
	if err != nil {
		t.Fatalf("New (resumed): %v", err)
	}
	defer mr.Close()
	if err := mr.RestoreSnapshot(snap); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if _, err := mr.Run(); err != nil {
		t.Fatalf("Run (resumed): %v", err)
	}

	want, got := full.Pattern(), resumed.Pattern()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("recorded patterns diverge:\nfull    %d events %+v\nresumed %d events %+v",
			len(want), want, len(got), got)
	}
}
