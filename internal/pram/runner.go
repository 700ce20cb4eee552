package pram

import (
	"context"
	"fmt"
	"log"
	"time"
)

// Runner executes many runs on one pooled Machine, so sweep drivers (the
// experiment tables, bench.Points, benchmarks) stop reconstructing the
// world per run: shared memory, contexts, scratch buffers, and — for
// Resettable processors of a reused Algorithm instance — per-processor
// private state all carry over. Runs are bit-identical to fresh Machines
// (see Machine.Reset). The zero value is ready to use; a Runner must not
// be used concurrently, but independent Runners are safe in parallel
// (bench.Points keeps one per goroutine via a sync.Pool).
type Runner struct {
	m *Machine

	// CheckpointEvery, when positive together with a non-empty
	// CheckpointPath, makes runs checkpoint the machine to
	// CheckpointPath (crash-consistently, via SaveSnapshotRotate's
	// write-tmp-rename with one generation of history) at every tick
	// that is a multiple of CheckpointEvery, so a killed run can be
	// resumed from the last loadable checkpoint (LoadCheckpoint) with
	// Resume.
	CheckpointEvery int
	// CheckpointPath is the checkpoint file location; see CheckpointEvery.
	CheckpointPath string
	// BatchTicks is the most ticks one iteration of the run loop
	// advances through Machine.TickBatch. Above 1 it amortizes per-tick
	// bookkeeping over quiescent stretches (see TickBatch for the exact
	// fallback rules; runs remain tick-for-tick equivalent to per-tick
	// stepping); 0 or 1 makes every iteration a single Step. Checkpoint
	// boundaries cap the batch, and checkpoints land on the multiples of
	// CheckpointEvery, so they fall on the same ticks at any BatchTicks
	// and a resumed run, whatever tick it resumed at, caps its batches
	// (and so its quiet windows) where an uninterrupted run does.
	BatchTicks int
	// Log receives human-readable notices the Runner emits when it
	// degrades gracefully, such as a final checkpoint on cancellation
	// that failed to save. Nil means log.Printf.
	Log func(format string, args ...any)
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		r.Log(format, args...)
		return
	}
	log.Printf(format, args...)
}

// Run executes one complete run of alg against adv under cfg on the
// pooled machine, returning its final metrics. With checkpointing
// configured (CheckpointEvery > 0 and CheckpointPath set) the run is
// periodically snapshotted to CheckpointPath.
func (r *Runner) Run(cfg Config, alg Algorithm, adv Adversary) (Metrics, error) {
	return r.RunCtx(context.Background(), cfg, alg, adv)
}

// RunCtx is Run with cooperative cancellation: when ctx is canceled the
// run stops at the end of the current batch (the current tick when
// BatchTicks <= 1), flushes a final checkpoint (if checkpointing is
// configured) so the interrupted run stays resumable, and returns an
// error wrapping ctx.Err().
func (r *Runner) RunCtx(ctx context.Context, cfg Config, alg Algorithm, adv Adversary) (Metrics, error) {
	m, err := r.Machine(cfg, alg, adv)
	if err != nil {
		return Metrics{}, err
	}
	return r.runCtx(ctx, m)
}

// Resume restores snap into a machine configured for cfg/alg/adv and
// runs it to completion. The resumed run is bit-identical to the
// remainder of the run the snapshot was taken from; checkpointing, if
// configured, continues from the restored tick.
func (r *Runner) Resume(cfg Config, alg Algorithm, adv Adversary, snap *Snapshot) (Metrics, error) {
	return r.ResumeCtx(context.Background(), cfg, alg, adv, snap)
}

// ResumeCtx is Resume with cooperative cancellation (see RunCtx).
func (r *Runner) ResumeCtx(ctx context.Context, cfg Config, alg Algorithm, adv Adversary, snap *Snapshot) (Metrics, error) {
	m, err := r.Machine(cfg, alg, adv)
	if err != nil {
		return Metrics{}, err
	}
	if err := m.RestoreSnapshot(snap); err != nil {
		return Metrics{}, err
	}
	obsResume()
	return r.runCtx(ctx, m)
}

// LoadCheckpoint loads the newest loadable generation of the
// checkpoint at path: the current one, or the previous one kept by
// SaveSnapshotRotate. A fallback is reported through warnf and counted
// in pram_checkpoint_fallbacks_total, because the resumed run
// re-executes the ticks between the two generations (correct, just
// slower). Every resume from a checkpoint file loads it here, so each
// counts its fallback once.
func LoadCheckpoint(path string, warnf func(format string, args ...any)) (*Snapshot, error) {
	snap, loaded, err := LoadSnapshotFallback(path)
	if err != nil {
		return nil, err
	}
	if loaded != path {
		obsResumeFallback()
		warnf("warning: checkpoint %s unusable; resuming from previous checkpoint %s (tick %d)",
			path, loaded, snap.Tick)
	}
	return snap, nil
}

// runCtx is the Runner's one drive loop. Each iteration polls ctx once,
// advances m by one TickBatch of up to max(BatchTicks, 1) ticks, capped
// at the next checkpoint tick, and checkpoints when one is due. A batch
// of one tick is exactly one Step, so per-tick runs keep their exact
// event stream.
func (r *Runner) runCtx(ctx context.Context, m *Machine) (Metrics, error) {
	done := ctx.Done()
	checkpointing := r.CheckpointEvery > 0 && r.CheckpointPath != ""
	batch := max(r.BatchTicks, 1)
	next := r.nextCheckpoint(m.Tick())
	for {
		select {
		case <-done:
			if checkpointing {
				// Flush a final checkpoint so the canceled run resumes
				// from here rather than the last periodic checkpoint.
				if err := r.checkpoint(m); err != nil {
					r.logf("pram: final checkpoint on cancel failed: %v", err)
				}
			}
			return m.Metrics(), fmt.Errorf("pram: run canceled at tick %d: %w", m.Tick(), ctx.Err())
		default:
		}
		k := batch
		if checkpointing {
			// TickBatch never runs past k ticks, so the next checkpoint
			// is always at least one tick ahead here.
			k = min(k, next-m.Tick())
		}
		_, finished, err := m.TickBatch(k)
		if err != nil {
			return m.Metrics(), err
		}
		if finished {
			return m.Metrics(), nil
		}
		if checkpointing && m.Tick() >= next {
			if err := r.checkpoint(m); err != nil {
				return m.Metrics(), err
			}
			next = r.nextCheckpoint(m.Tick())
		}
	}
}

// nextCheckpoint returns the first multiple of CheckpointEvery after
// tick.
func (r *Runner) nextCheckpoint(tick int) int {
	if r.CheckpointEvery <= 0 {
		return 0
	}
	return (tick/r.CheckpointEvery + 1) * r.CheckpointEvery
}

// checkpoint snapshots m and saves it to CheckpointPath with rotation.
func (r *Runner) checkpoint(m *Machine) error {
	start := time.Now()
	snap, err := m.Snapshot()
	if err != nil {
		return fmt.Errorf("pram: checkpoint at tick %d: %w", m.Tick(), err)
	}
	if err := SaveSnapshotRotate(r.CheckpointPath, snap); err != nil {
		return fmt.Errorf("pram: checkpoint at tick %d: %w", m.Tick(), err)
	}
	obsCheckpoint(m.Tick(), time.Since(start))
	return nil
}

// Machine readies the pooled machine for a run of alg against adv under
// cfg and returns it, for callers that need the machine handle (stepping
// manually, inspecting memory or per-processor state afterwards). The
// returned machine is owned by the Runner and is valid until the next
// Run/Machine/Close call.
func (r *Runner) Machine(cfg Config, alg Algorithm, adv Adversary) (*Machine, error) {
	if r.m == nil {
		m, err := New(cfg, alg, adv)
		if err != nil {
			return nil, err
		}
		r.m = m
		return m, nil
	}
	if err := r.m.Reset(cfg, alg, adv); err != nil {
		return nil, err
	}
	return r.m, nil
}

// Violations returns the adversary contract violations the pooled
// machine recorded during its most recent run (nil before any run).
func (r *Runner) Violations() []Violation {
	if r.m == nil {
		return nil
	}
	return r.m.Violations()
}

// Close retires the pooled machine (see Machine.Close). The Runner is
// reusable afterwards; the next run builds a fresh machine.
func (r *Runner) Close() {
	if r.m != nil {
		r.m.Close()
		r.m = nil
	}
}
