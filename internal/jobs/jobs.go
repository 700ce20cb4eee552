// Package jobs is the persistent run service behind cmd/pramd: a
// bounded-worker FIFO queue of engine specs whose every state change is
// recorded on disk, so a crashed or restarted daemon picks its work back
// up instead of losing it.
//
// Each job is a directory under <state dir>/jobs/<id>/:
//
//	status.json     the job record: the submitted spec verbatim, state,
//	                timestamps, resume count
//	events.jsonl    the run's event trace (run jobs)
//	checkpoint.snap the machine checkpoint generations (run jobs)
//	sweep/          the fabric ledger (sweep jobs)
//	result.json     the engine result (terminal done state only)
//
// A sweep job is a fabric Do-All (internal/fabric) with the spec's
// Parallel (GOMAXPROCS when 0) as its in-process parallelism.
//
// Recovery mirrors the paper's fail-stop/restart model one level up:
// a job found "running" at Open was interrupted by a crash, so it is
// re-enqueued with Resume set, and execution resumes from the newest
// loadable checkpoint (run jobs) or from the ledger, whose committed
// experiments are cache hits (sweep jobs). Determinism makes the
// resumed job's results identical to an uninterrupted run's.
package jobs

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/engine"
)

// Kind selects which engine path a job drives.
type Kind string

// The job kinds, one per engine spec.
const (
	KindRun   Kind = "run"   // one Write-All run (engine.RunSpec)
	KindSweep Kind = "sweep" // an experiment sweep (engine.SweepSpec)
	KindSim   Kind = "sim"   // a robust PRAM simulation (engine.SimSpec)
)

// Spec is a submitted unit of work: a kind plus exactly one engine spec.
type Spec struct {
	Kind  Kind              `json:"kind"`
	Run   *engine.RunSpec   `json:"run,omitempty"`
	Sweep *engine.SweepSpec `json:"sweep,omitempty"`
	Sim   *engine.SimSpec   `json:"sim,omitempty"`
}

// Validate reports the first problem that would keep the spec from being
// accepted. Beyond the engine's own validation, it rejects every
// user-supplied file path: the store owns each job's directory layout,
// and a daemon must not let remote specs read or write arbitrary files.
func (s Spec) Validate() error {
	n := 0
	for _, set := range []bool{s.Run != nil, s.Sweep != nil, s.Sim != nil} {
		if set {
			n++
		}
	}
	if n != 1 {
		return fmt.Errorf("jobs: spec must carry exactly one of run, sweep, sim (got %d)", n)
	}
	switch s.Kind {
	case KindRun:
		if s.Run == nil {
			return fmt.Errorf("jobs: kind %q needs its matching spec field", s.Kind)
		}
		for _, f := range []struct{ field, v string }{
			{"csv", s.Run.CSVPath},
			{"trace", s.Run.TracePath},
			{"record", s.Run.RecordPath},
			{"replay", s.Run.ReplayPath},
			{"checkpoint", s.Run.CheckpointPath},
			{"restore", s.Run.RestorePath},
		} {
			if f.v != "" {
				return fmt.Errorf("jobs: run spec field %q must be empty: the store owns the job's files", f.field)
			}
		}
		return s.Run.Validate()
	case KindSweep:
		if s.Sweep == nil {
			return fmt.Errorf("jobs: kind %q needs its matching spec field", s.Kind)
		}
		return s.Sweep.Validate()
	case KindSim:
		if s.Sim == nil {
			return fmt.Errorf("jobs: kind %q needs its matching spec field", s.Kind)
		}
		return s.Sim.Validate()
	default:
		return fmt.Errorf("jobs: unknown kind %q (want run, sweep, or sim)", s.Kind)
	}
}

// State is a job's lifecycle position.
type State string

// The job states. queued and running are live; the rest are terminal.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one submitted unit of work and its current lifecycle record.
// It is persisted verbatim as status.json in the job's directory.
type Job struct {
	// ID is the store-assigned identifier ("j000001", ...); IDs sort in
	// submission order.
	ID string `json:"id"`
	// Spec is the work as submitted.
	Spec Spec `json:"spec"`
	// State is the lifecycle position; Error holds the terminal error
	// for failed (and the cancellation note for canceled) jobs.
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// Created/Started/Finished are wall-clock lifecycle instants (zero
	// until reached; Started resets when a drain re-queues the job).
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitempty"`
	Finished time.Time `json:"finished,omitempty"`
	// Resume marks that the next execution should pick up from the job's
	// checkpoints; Resumes counts how many times crash recovery has
	// re-enqueued it.
	Resume  bool `json:"resume,omitempty"`
	Resumes int  `json:"resumes,omitempty"`
}

// Sentinel errors the store returns; HTTP layers map them to statuses.
var (
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("jobs: job not found")
	// ErrClosed reports a submission to a closing store.
	ErrClosed = errors.New("jobs: store is closed")
	// ErrState reports an operation invalid in the job's current state
	// (canceling a finished job, fetching an unfinished result).
	ErrState = errors.New("jobs: wrong job state")
)

// KillPoint is the faultinject failpoint consulted during job execution
// (per tick for run jobs, per committed experiment for sweep jobs). When
// it fires, the store abandons the job as a process crash would: the
// job's context is canceled and its on-disk status stays "running", so
// the next Open must recover it. Chaos tests arm it via faultinject.Swap.
const KillPoint = "jobs.kill"
