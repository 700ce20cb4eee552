package pram

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// obsDeltas captures a set of metric readings so the process-wide
// counters can be asserted as per-test deltas (the hooks stay enabled
// for the life of the test binary).
func obsDeltas(reg *obs.Registry, names ...string) func() map[string]float64 {
	before := make(map[string]float64, len(names))
	for _, n := range names {
		before[n], _ = reg.Value(n)
	}
	return func() map[string]float64 {
		out := make(map[string]float64, len(names))
		for _, n := range names {
			v, _ := reg.Value(n)
			out[n] = v - before[n]
		}
		return out
	}
}

func TestEnableObsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	EnableObs(reg)
	path := filepath.Join(t.TempDir(), "ckpt.snap")

	// snapAlg (snapshot_test.go) implements Snapshotter, which
	// checkpointing requires.
	alg := snapAlg{}
	cfg := Config{N: 16, P: 4}
	adv := &funcAdversary{name: "none"}

	delta := obsDeltas(reg,
		obs.MetricTicks, obs.MetricCompleted, obs.MetricRuns, obs.MetricRunErrors,
		obs.MetricCheckpoints, obs.MetricResumes, obs.MetricCheckpointFallbacks)
	r := &Runner{CheckpointPath: path, CheckpointEvery: 1, Log: t.Logf}
	m, err := r.Run(cfg, alg, adv)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	d := delta()
	if got := d[obs.MetricTicks]; got != float64(m.Ticks) {
		t.Errorf("ticks delta = %v, want %d", got, m.Ticks)
	}
	if got := d[obs.MetricCompleted]; got != float64(m.Completed) {
		t.Errorf("completed delta = %v, want %d", got, m.Completed)
	}
	if d[obs.MetricRuns] != 1 || d[obs.MetricRunErrors] != 0 {
		t.Errorf("runs/errors delta = %v/%v, want 1/0", d[obs.MetricRuns], d[obs.MetricRunErrors])
	}
	if d[obs.MetricCheckpoints] < 2 {
		t.Errorf("checkpoints delta = %v, want >= 2 (every tick of a multi-tick run)", d[obs.MetricCheckpoints])
	}

	// Spot gauges reflect the finished run.
	if v, _ := reg.Value(obs.MetricTick); v != float64(m.Ticks) {
		t.Errorf("tick gauge = %v, want %d", v, m.Ticks)
	}
	wantSigma := float64(m.Completed * 1000 / (int64(m.N) + m.FSize()))
	if v, _ := reg.Value(obs.MetricSigmaMilli); v != wantSigma {
		t.Errorf("sigma_milli gauge = %v, want %v", v, wantSigma)
	}
	if v, _ := reg.Value(obs.MetricCheckpointGen); v <= 0 {
		t.Errorf("checkpoint generation gauge = %v, want > 0", v)
	}
	if v, _ := reg.Value(obs.MetricCheckpointAge); v < 0 {
		t.Errorf("checkpoint age = %v, want >= 0 after a checkpoint", v)
	}

	// Resume from the saved checkpoint: the resume counter moves, the
	// fallback counter doesn't (the current generation is loadable).
	resumeLatest := func() error {
		snap, err := LoadCheckpoint(path, t.Logf)
		if err != nil {
			return err
		}
		_, err = r.Resume(cfg, alg, adv, snap)
		return err
	}
	delta = obsDeltas(reg, obs.MetricResumes, obs.MetricCheckpointFallbacks, obs.MetricRuns)
	if err := resumeLatest(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	d = delta()
	if d[obs.MetricResumes] != 1 || d[obs.MetricCheckpointFallbacks] != 0 || d[obs.MetricRuns] != 1 {
		t.Errorf("resume deltas = %v, want resumes=1 fallbacks=0 runs=1", d)
	}

	// Corrupt the newest checkpoint: LoadCheckpoint falls back one
	// generation and says so in the fallback counter.
	if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	delta = obsDeltas(reg, obs.MetricResumes, obs.MetricCheckpointFallbacks)
	if err := resumeLatest(); err != nil {
		t.Fatalf("resume after corruption: %v", err)
	}
	d = delta()
	if d[obs.MetricResumes] != 1 || d[obs.MetricCheckpointFallbacks] != 1 {
		t.Errorf("fallback deltas = %v, want resumes=1 fallbacks=1", d)
	}
}

func TestObsCountsRunErrors(t *testing.T) {
	reg := obs.NewRegistry()
	EnableObs(reg)
	delta := obsDeltas(reg, obs.MetricRuns, obs.MetricRunErrors)
	spin := &testAlg{
		name:  "spin",
		cycle: func(pid int, ctx *Ctx) Status { return Continue },
	}
	m := mustMachine(t, Config{N: 4, P: 2, MaxTicks: 3}, spin, &funcAdversary{})
	if _, err := m.Run(); err == nil {
		t.Fatal("want tick-limit error")
	}
	d := delta()
	if d[obs.MetricRuns] != 1 || d[obs.MetricRunErrors] != 1 {
		t.Errorf("deltas = %v, want runs=1 errors=1", d)
	}
}
