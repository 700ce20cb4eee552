package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestRunAllAlgorithmAdversaryPairs runs every registered algorithm
// failure-free and every registered adversary against the default X.
func TestRunAllAlgorithmAdversaryPairs(t *testing.T) {
	for _, alg := range engine.Algorithms() {
		t.Run(alg, func(t *testing.T) {
			if err := run(context.Background(), []string{"-alg", alg, "-n", "64", "-p", "16"}); err != nil {
				t.Fatalf("run: %v", err)
			}
		})
	}
	for _, adv := range engine.Adversaries() {
		t.Run(adv, func(t *testing.T) {
			if err := run(context.Background(), []string{"-adv", adv, "-n", "64"}); err != nil {
				t.Fatalf("run: %v", err)
			}
		})
	}
}

func TestRunRejectsUnknownNames(t *testing.T) {
	if err := run(context.Background(), []string{"-alg", "nope"}); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Errorf("err = %v, want unknown algorithm", err)
	}
	if err := run(context.Background(), []string{"-adv", "nope"}); err == nil || !strings.Contains(err.Error(), "unknown adversary") {
		t.Errorf("err = %v, want unknown adversary", err)
	}
}

func TestRunSurfacesTickLimit(t *testing.T) {
	// V under the rotating thrasher stalls; the error must reach main.
	err := run(context.Background(), []string{"-alg", "V", "-adv", "rotating", "-n", "32", "-ticks", "500"})
	if err == nil || !strings.Contains(err.Error(), "tick limit") {
		t.Errorf("err = %v, want tick limit", err)
	}
}

func TestRunWritesCSVProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profile.csv")
	if err := run(context.Background(), []string{"-alg", "X", "-adv", "random", "-n", "32", "-csv", path}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read csv: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "tick,alive,completed,failures,restarts" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) < 2 {
		t.Error("no profile rows written")
	}
}

func TestRunBudgetedEvents(t *testing.T) {
	if err := run(context.Background(), []string{"-adv", "random", "-events", "10", "-n", "64"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunRecordAndReplayPattern(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pattern.json")
	if err := run(context.Background(), []string{"-alg", "X", "-adv", "halving", "-n", "32", "-record", path}); err != nil {
		t.Fatalf("record run: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("pattern file missing: %v", err)
	}
	if err := run(context.Background(), []string{"-alg", "X", "-n", "32", "-replay", path}); err != nil {
		t.Fatalf("replay run: %v", err)
	}
}

func TestRunReplayRejectsMissingFile(t *testing.T) {
	if err := run(context.Background(), []string{"-replay", "/nonexistent/pattern.json"}); err == nil {
		t.Fatal("want error for missing pattern file")
	}
}

func TestRunSnapshotAndRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.snap")
	// A run churny enough to outlast several checkpoint intervals.
	args := []string{"-alg", "X", "-adv", "random", "-fail", "0.3", "-restart", "0.6", "-seed", "5", "-n", "128", "-p", "32"}
	if err := run(context.Background(), append(args, "-snapshot", path, "-snapshot-every", "4")); err != nil {
		t.Fatalf("snapshot run: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}
	// Resuming the checkpoint with matching -alg/-adv/-seed must finish
	// cleanly; -n/-p come from the snapshot, so we omit them.
	if err := run(context.Background(), []string{"-alg", "X", "-adv", "random", "-fail", "0.3", "-restart", "0.6", "-seed", "5", "-restore", path}); err != nil {
		t.Fatalf("restore run: %v", err)
	}
}

func TestRunRestoreRejectsMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.snap")
	args := []string{"-alg", "X", "-adv", "random", "-fail", "0.3", "-restart", "0.6", "-n", "128", "-p", "32"}
	if err := run(context.Background(), append(args, "-snapshot", path, "-snapshot-every", "4")); err != nil {
		t.Fatalf("snapshot run: %v", err)
	}
	if err := run(context.Background(), []string{"-alg", "V", "-adv", "random", "-restore", path}); err == nil {
		t.Fatal("want error resuming an X snapshot with -alg V")
	}
}

func TestRunRestoreRejectsMissingOrCorruptFile(t *testing.T) {
	if err := run(context.Background(), []string{"-restore", filepath.Join(t.TempDir(), "absent.snap")}); err == nil {
		t.Fatal("want error for missing snapshot file")
	}
	bad := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(bad, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-restore", bad}); err == nil {
		t.Fatal("want error for corrupt snapshot file")
	}
}

func TestRunRejectsBadSnapshotInterval(t *testing.T) {
	if err := run(context.Background(), []string{"-snapshot", "x.snap", "-snapshot-every", "0", "-n", "16"}); err == nil {
		t.Fatal("want error for -snapshot-every 0")
	}
}

func TestRunRejectsBadTraceSample(t *testing.T) {
	if err := run(context.Background(), []string{"-trace-sample", "0", "-n", "16"}); err == nil {
		t.Fatal("want error for -trace-sample 0")
	}
}

func TestRunTraceSampleThinsCycleEvents(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	thin := filepath.Join(dir, "thin.jsonl")
	args := []string{"-alg", "X", "-adv", "random", "-seed", "3", "-n", "64"}
	if err := run(context.Background(), append(args, "-trace", full)); err != nil {
		t.Fatalf("full trace run: %v", err)
	}
	if err := run(context.Background(), append(args, "-trace", thin, "-trace-sample", "4")); err != nil {
		t.Fatalf("sampled trace run: %v", err)
	}
	count := func(path string) (cycles, runs int) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if strings.Contains(line, `"ev":"cycle"`) {
				cycles++
			}
			if strings.Contains(line, `"ev":"run"`) {
				runs++
			}
		}
		return cycles, runs
	}
	fullCycles, fullRuns := count(full)
	thinCycles, thinRuns := count(thin)
	if fullRuns != 1 || thinRuns != 1 {
		t.Errorf("run events = %d/%d, want 1 in both traces (never sampled)", fullRuns, thinRuns)
	}
	want := (fullCycles + 3) / 4
	if thinCycles != want {
		t.Errorf("sampled trace kept %d of %d cycle events, want %d (every 4th)", thinCycles, fullCycles, want)
	}
}

func TestRunWithDebugServerAndProgress(t *testing.T) {
	// The run enables the whole observability path end to end: metrics
	// registered, debug server bound to an ephemeral localhost port,
	// progress reporter emitting, all torn down on exit.
	err := run(context.Background(), []string{
		"-alg", "X", "-adv", "random", "-n", "64",
		"-debug-addr", ":0", "-progress", "10ms",
	})
	if err != nil {
		t.Fatalf("run with -debug-addr/-progress: %v", err)
	}
}

func TestRunRejectsUnusableDebugAddr(t *testing.T) {
	err := run(context.Background(), []string{"-n", "16", "-debug-addr", "127.0.0.1:notaport"})
	if err == nil {
		t.Fatal("want error for an unusable -debug-addr")
	}
}
