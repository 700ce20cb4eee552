package failstop

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/pram"
)

// TestChaosResumeEquivalence is the randomized end-to-end check of the
// harness's own failure model: a checkpointed run whose snapshot I/O is
// bombarded with injected faults — torn writes, silent bit corruption,
// failing fsyncs and renames — must still finish with exactly the
// metrics of an undisturbed run. A failed checkpoint kills the run (the
// simulated crash); the driver then resumes from the newest loadable
// checkpoint generation, or restarts from scratch when corruption has
// poisoned both. The test is opt-in (PRAM_CHAOS=1, see `make chaos`)
// because it is randomized by design; every run prints its seed so a
// failure replays exactly via PRAM_CHAOS_SEED.
func TestChaosResumeEquivalence(t *testing.T) {
	if os.Getenv("PRAM_CHAOS") == "" {
		t.Skip("chaos testing is opt-in: set PRAM_CHAOS=1 (or run `make chaos`)")
	}
	seed := time.Now().UnixNano()
	if s := os.Getenv("PRAM_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("PRAM_CHAOS_SEED=%q: %v", s, err)
		}
		seed = v
	}
	t.Logf("chaos seed %d (replay with PRAM_CHAOS_SEED=%d)", seed, seed)

	grid := []struct {
		name  string
		mkAlg func() Algorithm
		mkAdv func() Adversary
	}{
		{"X/random", NewX, func() Adversary { return RandomFailures(0.2, 0.6, 7) }},
		{"X/thrashing", NewX, func() Adversary { return ThrashingAdversary(false) }},
		{"V/random-budgeted", NewV, func() Adversary { return BudgetedRandomFailures(0.3, 0.7, 13, 64) }},
		{"W/random", NewW, func() Adversary { return RandomFailures(0.25, 0.5, 21) }},
		{"ACC/none", func() Algorithm { return NewACC(11) }, NoFailures},
	}
	cfg := Config{N: 96, P: 12, MaxTicks: 200000}

	for i, cell := range grid {
		cellSeed := seed + int64(i)*0x9e3779b9
		t.Run(cell.name, func(t *testing.T) {
			chaosCell(t, cfg, cell.mkAlg, cell.mkAdv, cellSeed)
		})
	}
}

// chaosCell runs one (algorithm, adversary) pairing: a fault-free
// baseline, then the crash/resume loop under injected snapshot faults,
// and asserts the survivor's final metrics are bit-identical.
func chaosCell(t *testing.T, cfg Config, mkAlg func() Algorithm, mkAdv func() Adversary, seed int64) {
	// Fault-free baseline on a fresh machine.
	mb, err := pram.New(cfg, mkAlg(), mkAdv())
	if err != nil {
		t.Fatalf("New (baseline): %v", err)
	}
	defer mb.Close()
	baseline, err := mb.Run()
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	if baseline.Ticks < 20 {
		t.Fatalf("baseline finished in %d ticks; too short to checkpoint meaningfully", baseline.Ticks)
	}

	// ~40 checkpoints per run regardless of the pairing's natural length
	// (W under heavy churn runs hundreds of times longer than X), so the
	// crash rate per attempt stays in the regime where resuming makes
	// forward progress.
	every := baseline.Ticks / 40
	if every < 5 {
		every = 5
	}

	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	var logLines int
	r := &pram.Runner{
		CheckpointEvery: every,
		CheckpointPath:  filepath.Join(dir, "chaos.ckpt"),
		Log: func(format string, args ...any) {
			logLines++
			t.Logf("runner: "+format, args...)
		},
	}
	defer r.Close()

	var (
		final   Metrics
		crashes int
		resets  int
		resume  bool
	)
	const maxAttempts = 300
	attempt := 0
	for {
		attempt++
		if attempt > maxAttempts {
			t.Fatalf("no completion after %d attempts (%d crashes, %d restarts from scratch)",
				maxAttempts, crashes, resets)
		}
		old := faultinject.Swap(chaosRegistry(rng))
		if resume {
			var snap *pram.Snapshot
			if snap, err = pram.LoadCheckpoint(r.CheckpointPath, r.Log); err == nil {
				final, err = r.ResumeCtx(context.Background(), cfg, mkAlg(), mkAdv(), snap)
			}
		} else {
			final, err = r.RunCtx(context.Background(), cfg, mkAlg(), mkAdv())
		}
		faultinject.Swap(old)
		if err == nil {
			break
		}
		switch {
		case errors.Is(err, faultinject.ErrInjected):
			// A checkpoint died mid-save: the simulated crash. Resume
			// from whichever generation still loads.
			crashes++
			resume = true
		case resume:
			// Both checkpoint generations are unloadable (corruption
			// got them all) — the real-world recovery is a restart from
			// scratch, which determinism makes merely slow, not wrong.
			resets++
			resume = false
		default:
			t.Fatalf("attempt %d failed outside the fault model: %v", attempt, err)
		}
	}
	t.Logf("survived %d simulated crashes, %d restarts from scratch, %d runner notices",
		crashes, resets, logLines)
	if final != baseline {
		t.Errorf("chaos run diverged from fault-free baseline:\nchaos    %+v\nbaseline %+v",
			final, baseline)
	}
}

// chaosRegistry builds one attempt's fault mix: the snapshot write path
// tears or silently corrupts, and fsync/rename fail, each independently
// and probabilistically. Journal and kernel points stay clean — the
// chaos contract is that snapshot-I/O faults never change the logical
// run, only how often it has to crash and resume.
func chaosRegistry(rng *rand.Rand) *faultinject.Registry {
	reg := faultinject.New(rng.Int63())
	writeMode := faultinject.Torn
	if rng.Intn(2) == 0 {
		writeMode = faultinject.Corrupt
	}
	reg.Set("snapshot.write", faultinject.Spec{Mode: writeMode, Prob: 0.1})
	reg.Set("snapshot.sync", faultinject.Spec{Mode: faultinject.Error, Prob: 0.05})
	reg.Set("snapshot.rename", faultinject.Spec{Mode: faultinject.Error, Prob: 0.05})
	return reg
}
