package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/pram"
)

// TestExecuteRunReuseIsInvisible checks the idle Runner behind
// ExecuteRun: a run's result must not depend on which earlier run's
// machine it inherits. Each spec runs after a different predecessor in
// the forward and reverse passes — other algorithms, shapes, memory
// layouts and batch settings — and must reproduce its result
// exactly. A result's violation records must also survive later runs
// that reuse the machine's records.
func TestExecuteRunReuseIsInvisible(t *testing.T) {
	specs := []RunSpec{
		{Algorithm: "X", Adversary: "none", N: 64, P: 16},
		{Algorithm: "V", Adversary: "random", N: 128, P: 32, Seed: 3, FailProb: 0.2, RestartProb: 0.6},
		{Algorithm: "trivial", Adversary: "none", N: 1000, P: 96, Packed: true, BatchTicks: 64},
		{Algorithm: "sequential", Adversary: "halving", N: 200, P: 8, Packed: true, BatchTicks: 16},
		// Two runs that record different violations back to back.
		{Algorithm: "X", Adversary: "random", N: 32, P: 4, Seed: 5, FailProb: 0.95, RestartProb: 0.2},
		{Algorithm: "X", Adversary: "random", N: 32, P: 4, Seed: 7, FailProb: 0.5, RestartProb: 0.2},
		{Algorithm: "W", Adversary: "thrashing", N: 64, P: 64},
		{Algorithm: "trivial", Adversary: "random", N: 512, P: 64, Seed: 9, FailProb: 0.1, RestartProb: 0.5, MaxEvents: 40, Packed: true, BatchTicks: 4096},
	}
	run := func(spec RunSpec) RunResult {
		t.Helper()
		res, err := ExecuteRun(context.Background(), spec, RunOptions{})
		if err != nil {
			t.Fatalf("%s under %s: %v", spec.Algorithm, spec.Adversary, err)
		}
		return res
	}
	forward := make([]RunResult, len(specs))
	for i, spec := range specs {
		forward[i] = run(spec)
	}
	if reflect.DeepEqual(forward[4].Violations, forward[5].Violations) || len(forward[4].Violations) == 0 {
		t.Fatalf("specs 4 and 5 must record different violations, got %v and %v", forward[4].Violations, forward[5].Violations)
	}
	for i := len(specs) - 1; i >= 0; i-- {
		if got := run(specs[i]); !reflect.DeepEqual(got, forward[i]) {
			t.Errorf("spec %d: result depends on the machine it inherited:\nforward %+v\nreverse %+v", i, forward[i], got)
		}
	}
}

// TestExecuteRunTraceKeepsQuietWindows guards the traced run against
// silent disengagement: with TracePath and BatchTicks set, the trace
// sink is the run's only sink and a BatchSink, so the run still batches
// and its batch and tick lines together cover every tick once.
func TestExecuteRunTraceKeepsQuietWindows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	res, err := ExecuteRun(context.Background(), RunSpec{
		Algorithm: "trivial", Adversary: "none", N: 1 << 14, P: 8, Packed: true, BatchTicks: 64, TracePath: path,
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	next, batches := 0, 0
	for _, line := range bytes.Split(bytes.TrimSpace(trace), []byte("\n")) {
		var ev struct {
			Ev                string
			Tick, From, Ticks int
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		switch {
		case ev.Ev == "tick" && ev.Tick == next:
			next++
		case ev.Ev == "batch" && ev.From == next && ev.Ticks >= 2:
			next += ev.Ticks
			batches++
		case ev.Ev == "tick" || ev.Ev == "batch":
			t.Fatalf("line %s does not start at tick %d", line, next)
		}
	}
	if next != res.Metrics.Ticks || batches == 0 {
		t.Fatalf("%d batch lines; tick and batch lines cover [0, %d), want [0, %d) with at least one batch line",
			batches, next, res.Metrics.Ticks)
	}
}

// TestResumePastTornCheckpointCountsOneFallback tears the newest
// checkpoint generation of a finished run and resumes it both ways
// ExecuteRun can: from RestorePath, and as the job service's crash
// recovery (ResumeTick, then Resume). Each resume falls back to the
// previous generation, warns, reproduces the uninterrupted run's
// metrics, and raises pram_checkpoint_fallbacks_total by exactly one.
func TestResumePastTornCheckpointCountsOneFallback(t *testing.T) {
	reg := obs.NewRegistry()
	pram.EnableObs(reg)
	path := filepath.Join(t.TempDir(), "run.snap")
	spec := RunSpec{Algorithm: "X", Adversary: "random", N: 256, P: 16, Seed: 3,
		FailProb: 0.1, RestartProb: 0.5, CheckpointPath: path, CheckpointEvery: 8}
	want, err := ExecuteRun(context.Background(), spec, RunOptions{})
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	restore := spec
	restore.CheckpointPath, restore.RestorePath = "", path
	for _, tc := range []struct {
		name   string
		spec   RunSpec
		resume bool
	}{
		{"restore", restore, false},
		{"resume", spec, true},
	} {
		// Tear the newest generation, as a crash mid-write would.
		if err := os.Truncate(path, 10); err != nil {
			t.Fatalf("%s: Truncate: %v", tc.name, err)
		}
		if tc.resume {
			if _, ok := ResumeTick(path); !ok {
				t.Fatalf("%s: ResumeTick found no checkpoint", tc.name)
			}
		}
		before, _ := reg.Value(obs.MetricCheckpointFallbacks)
		var warned []string
		opt := RunOptions{Resume: tc.resume, Warnf: func(format string, args ...any) {
			warned = append(warned, fmt.Sprintf(format, args...))
		}}
		got, err := ExecuteRun(context.Background(), tc.spec, opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if after, _ := reg.Value(obs.MetricCheckpointFallbacks); after-before != 1 {
			t.Errorf("%s: fallback counter rose by %v, want 1", tc.name, after-before)
		}
		if len(warned) != 1 || !strings.Contains(warned[0], "previous checkpoint") {
			t.Errorf("%s: warnings %q, want one naming the previous checkpoint", tc.name, warned)
		}
		if got.ResumedFromTick == 0 || got.Metrics != want.Metrics {
			t.Errorf("%s: resumed from tick %d with metrics %+v, want a resume reproducing %+v",
				tc.name, got.ResumedFromTick, got.Metrics, want.Metrics)
		}
	}
}
