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
	"time"

	"repro/internal/engine"
)

// ExperimentTask names one registered experiment at one scale: the
// sweep's unit of distribution.
type ExperimentTask struct {
	// ID is the experiment identifier (e.g. "E6").
	ID string `json:"id"`
	// Full selects the slow sizes recorded in EXPERIMENTS.md.
	Full bool `json:"full,omitempty"`
	// Deadline is the sweep's point deadline (0 disables it). It is
	// omitted when zero, so deadline-free tasks keep the cache keys that
	// existing ledgers hold.
	Deadline time.Duration `json:"deadline_ns,omitempty"`
}

// Task is one unit of Do-All work: one registered bench experiment.
type Task struct {
	// Key identifies the task within its sweep (e.g. "E6/scale=1").
	// Keys are coordinator-local names; the result cache is keyed by
	// CacheKey, which hashes the task's content instead.
	Key        string         `json:"key"`
	Experiment ExperimentTask `json:"experiment"`
}

// Validate reports the first problem that would keep the task from
// executing on a worker.
func (t Task) Validate() error {
	if t.Key == "" {
		return fmt.Errorf("fabric: task has no key")
	}
	if t.Experiment.ID == "" {
		return fmt.Errorf("fabric: task %s has no experiment ID", t.Key)
	}
	return nil
}

// Decompose expands a sweep spec into its Do-All task list, one task
// per selected experiment, in registry order, keyed "<ID>/scale=<N>"
// (existing ledgers depend on these bytes). Each task carries the
// spec's point deadline; Parallel never changes tables, so tasks leave
// it out and the worker picks how many points run at once.
func Decompose(spec engine.SweepSpec) ([]Task, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ids, err := spec.ExperimentIDs()
	if err != nil {
		return nil, err
	}
	tasks := make([]Task, 0, len(ids))
	for _, id := range ids {
		tasks = append(tasks, Task{
			Key:        fmt.Sprintf("%s/scale=%d", id, engine.Scale(spec.Full)),
			Experiment: ExperimentTask{ID: id, Full: spec.Full, Deadline: spec.Deadline},
		})
	}
	return tasks, nil
}

// CacheKey returns the content address of a task's result: the SHA-256
// of the task's canonical JSON (which covers the experiment, its scale
// and its point deadline — everything that determines the output) bound
// to the code version that would produce it. Re-executed and
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
