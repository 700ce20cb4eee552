// Package fabric is the distributed sweep coordinator: a Do-All
// instance over crash-prone, restartable worker processes, scheduled
// with the same discipline the paper applies to Write-All cells. The
// coordinator decomposes an engine.SweepSpec into independent tasks,
// records durable progress in a fsync'd, torn-tail-tolerant ledger
// (the "shared memory" — a bench.Journal), and hands tasks to workers
// under revocable leases. Workers are assumed to crash and restart at
// any time; a lost worker costs at most one lease TTL of progress, a
// lost coordinator resumes from the ledger, and determinism makes the
// merged result set bit-identical to an uninterrupted single-process
// sweep. DESIGN.md §14 documents the protocol.
package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime/debug"

	"repro/internal/engine"
)

// ExperimentTask names one registered experiment at one scale: the
// sweep's unit of distribution, matching the sweep journal's
// engine.ExperimentKey granularity.
type ExperimentTask struct {
	// ID is the experiment identifier (e.g. "E6").
	ID string `json:"id"`
	// Full selects the slow sizes recorded in EXPERIMENTS.md.
	Full bool `json:"full,omitempty"`
}

// Task is one unit of Do-All work. Exactly one of Experiment and Run
// is set: Experiment tasks execute a registered bench experiment, Run
// tasks execute a single Write-All run (the fine-grained shape used by
// unit tests and custom grids).
type Task struct {
	// Key identifies the task within its sweep (e.g. "E6/scale=1").
	// Keys are coordinator-local names; the result cache is keyed by
	// CacheKey, which hashes the task's content instead.
	Key        string          `json:"key"`
	Experiment *ExperimentTask `json:"experiment,omitempty"`
	Run        *engine.RunSpec `json:"run,omitempty"`
}

// Validate reports the first problem that would keep the task from
// executing on a worker.
func (t Task) Validate() error {
	if t.Key == "" {
		return fmt.Errorf("fabric: task has no key")
	}
	switch {
	case t.Experiment != nil && t.Run != nil:
		return fmt.Errorf("fabric: task %s sets both experiment and run", t.Key)
	case t.Experiment == nil && t.Run == nil:
		return fmt.Errorf("fabric: task %s sets neither experiment nor run", t.Key)
	case t.Experiment != nil && t.Experiment.ID == "":
		return fmt.Errorf("fabric: task %s has no experiment ID", t.Key)
	case t.Run != nil:
		if err := t.Run.Validate(); err != nil {
			return fmt.Errorf("fabric: task %s: %w", t.Key, err)
		}
	}
	return nil
}

// Decompose expands a sweep spec into its Do-All task list, one task
// per selected experiment, in registry order. Task keys are the sweep
// journal's engine.ExperimentKey. Durability belongs to the ledger and
// tasks run their points one at a time without a point deadline, so
// Decompose rejects a spec that sets CheckpointDir, Resume or Deadline
// rather than drop them; it ignores Parallel, which never changes
// tables.
func Decompose(spec engine.SweepSpec) ([]Task, error) {
	if spec.CheckpointDir != "" || spec.Resume {
		return nil, fmt.Errorf("fabric: a fabric sweep takes no checkpoint dir or resume: the fabric ledger is the checkpoint")
	}
	if spec.Deadline != 0 {
		return nil, fmt.Errorf("fabric: a fabric sweep takes no point deadline (got %v): its tasks run without one", spec.Deadline)
	}
	ids, err := spec.ExperimentIDs()
	if err != nil {
		return nil, err
	}
	tasks := make([]Task, 0, len(ids))
	for _, id := range ids {
		tasks = append(tasks, Task{
			Key:        engine.ExperimentKey(id, spec.Full),
			Experiment: &ExperimentTask{ID: id, Full: spec.Full},
		})
	}
	return tasks, nil
}

// CacheKey returns the content address of a task's result: the SHA-256
// of the task's canonical JSON (which covers algorithm, adversary,
// sizes, seed — everything that determines the deterministic output)
// bound to the code version that would produce it. Re-executed and
// resumed tasks with the same address hit the ledger's result cache;
// a code change rotates every address so stale results cannot leak
// across versions.
func CacheKey(t Task, codeVersion string) string {
	raw, err := json.Marshal(t)
	if err != nil {
		// Task is plain data; Marshal cannot fail on it. Guard anyway.
		raw = []byte(t.Key)
	}
	h := sha256.New()
	h.Write(raw)
	h.Write([]byte{0})
	h.Write([]byte(codeVersion))
	return hex.EncodeToString(h.Sum(nil))
}

// CodeVersion identifies the code that computes results, for cache-key
// binding: the PRAM_CODE_VERSION environment variable when set (tests,
// reproducible builds), else the VCS revision stamped into the binary,
// else "dev".
func CodeVersion() string {
	if v := os.Getenv("PRAM_CODE_VERSION"); v != "" {
		return v
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	return "dev"
}
