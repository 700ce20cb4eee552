// Package engine is the shared orchestration layer between the CLIs
// (cmd/writeall, cmd/experiments, cmd/pramsim), the job service
// (internal/jobs, cmd/pramd), and any future sweep fabric. It owns the
// wiring the thin clients used to duplicate: flag-shaped configuration
// becomes a validated, JSON-round-trippable spec, and Execute* drives
// machine construction, Runner pooling, checkpoint/resume, sink setup,
// journaling, and graceful shutdown for that spec. It also owns the one
// registry of algorithm, adversary and program names (registry.go) that
// the specs, the CLIs and the adversary lab construct through.
//
// Three spec kinds cover the repo's workloads:
//
//   - RunSpec: one Write-All instance (what cmd/writeall runs),
//   - SweepSpec: the experiment tables (what cmd/experiments runs),
//   - SimSpec: a robust PRAM simulation (what cmd/pramsim runs).
//
// Specs are plain data — every field round-trips through encoding/json
// to an equal value — so they can be submitted over HTTP, persisted in
// a job directory, and replayed after a daemon restart.
package engine

import (
	"fmt"
	"time"
)

// RunSpec describes one Write-All run: the flag surface of cmd/writeall
// as data. The zero value is not runnable; at minimum Algorithm,
// Adversary, and N must be set (the CLI's flag defaults provide them).
type RunSpec struct {
	// Algorithm names the Write-All algorithm, one of Algorithms().
	Algorithm string `json:"algorithm"`
	// Adversary names the failure adversary, one of Adversaries().
	// Ignored when ReplayPath is set (the recorded pattern is the
	// adversary).
	Adversary string `json:"adversary"`
	// N is the Write-All array size; P the processor count (0 = N).
	N int `json:"n"`
	P int `json:"p,omitempty"`
	// Seed feeds the random adversary and ACC.
	Seed int64 `json:"seed,omitempty"`
	// FailProb and RestartProb parameterize the random adversary.
	FailProb    float64 `json:"fail_prob,omitempty"`
	RestartProb float64 `json:"restart_prob,omitempty"`
	// MaxEvents caps failure+restart events for the random adversary
	// (0 = unlimited).
	MaxEvents int64 `json:"max_events,omitempty"`
	// MaxTicks bounds the run (0 = the machine default).
	MaxTicks int `json:"max_ticks,omitempty"`
	// Packed opts into the bit-packed shared-memory layout for the
	// algorithm's Write-All prefix (Config.Packed); observationally
	// identical, ~64x smaller for binary-cell algorithms at N=10⁷-10⁸.
	Packed bool `json:"packed,omitempty"`
	// BatchTicks, when > 1, drives the run through the batched tick
	// kernel (Runner.BatchTicks): up to that many ticks advance per
	// round of bookkeeping while the adversary is quiescent, falling
	// back to per-tick stepping otherwise. 0 or 1 steps per tick.
	BatchTicks int `json:"batch_ticks,omitempty"`

	// CSVPath, when set, writes the per-tick CSV profile there.
	CSVPath string `json:"csv,omitempty"`
	// TracePath, when set, streams the event trace as JSON lines there.
	// TraceTicksOnly restricts the stream to tick and run events;
	// TraceSample keeps only every Nth cycle event (0 or 1 = all).
	TracePath      string `json:"trace,omitempty"`
	TraceTicksOnly bool   `json:"trace_ticks,omitempty"`
	TraceSample    int    `json:"trace_sample,omitempty"`
	// RecordPath records the inflicted failure pattern as JSON;
	// ReplayPath replays a recorded pattern (overriding Adversary).
	RecordPath string `json:"record,omitempty"`
	ReplayPath string `json:"replay,omitempty"`

	// CheckpointPath + CheckpointEvery enable periodic crash-consistent
	// checkpoints (CheckpointEvery 0 means the 1024-tick default when a
	// path is set). RestorePath resumes from an explicit snapshot file
	// instead of starting fresh.
	CheckpointPath  string `json:"checkpoint,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`
	RestorePath     string `json:"restore,omitempty"`
}

// DefaultCheckpointEvery is the checkpoint interval used when a
// RunSpec enables checkpointing without choosing one.
const DefaultCheckpointEvery = 1024

// Validate reports the first problem that would keep the spec from
// executing. Error strings for unknown algorithm/adversary names match
// the historical CLI messages, which are interface (tests grep them).
func (s RunSpec) Validate() error {
	alg, err := algorithms.find("algorithm", s.Algorithm)
	if err != nil {
		return err
	}
	adv, advErr := adversaries.find("adversary", s.Adversary)
	if s.ReplayPath == "" {
		if advErr != nil {
			return advErr
		}
		if adv.needsXTree && !alg.xTree {
			return fmt.Errorf("run spec: %w: algorithm %s (use %s)", ErrPostOrderAlgorithm, s.Algorithm, xTreeAlgorithms())
		}
	}
	if s.N <= 0 {
		return fmt.Errorf("run spec: n must be positive, got %d", s.N)
	}
	if s.P < 0 {
		return fmt.Errorf("run spec: p must be non-negative, got %d", s.P)
	}
	if adv.random {
		if err := checkProbs("run spec", s.FailProb, s.RestartProb); err != nil {
			return err
		}
	}
	if s.MaxEvents < 0 {
		return fmt.Errorf("run spec: max events must be non-negative, got %d", s.MaxEvents)
	}
	if s.MaxTicks < 0 {
		return fmt.Errorf("run spec: max ticks must be non-negative, got %d", s.MaxTicks)
	}
	if s.BatchTicks < 0 {
		return fmt.Errorf("run spec: batch ticks must be non-negative, got %d", s.BatchTicks)
	}
	if s.TraceSample < 0 {
		return fmt.Errorf("run spec: trace sample must be non-negative, got %d", s.TraceSample)
	}
	if s.CheckpointEvery < 0 {
		return fmt.Errorf("run spec: checkpoint interval must be non-negative, got %d", s.CheckpointEvery)
	}
	return nil
}

// SweepSpec describes one experiment sweep: the flag surface of
// cmd/experiments as data. The zero value runs every experiment at
// quick scale, GOMAXPROCS points at a time, without journaling.
type SweepSpec struct {
	// Run selects experiment IDs (e.g. ["E4", "E13"]); empty means all.
	// Matching is case-insensitive, like the CLI flag.
	Run []string `json:"run,omitempty"`
	// Full selects the slow sizes recorded in EXPERIMENTS.md.
	Full bool `json:"full,omitempty"`
	// Parallel is the number of sweep points evaluated concurrently
	// (<= 0 selects GOMAXPROCS); tables are identical at any setting.
	// Fabric tasks ignore it and run their points one at a time.
	Parallel int `json:"parallel,omitempty"`
	// Deadline bounds each sweep point's wall-clock time; overrunning
	// points degrade to error rows (0 disables). Fabric tasks run
	// without one, so fabric.Decompose rejects a nonzero Deadline.
	Deadline time.Duration `json:"deadline_ns,omitempty"`
	// CheckpointDir journals finished experiments to
	// CheckpointDir/journal.jsonl; Resume replays journaled experiments
	// and re-runs only the missing ones.
	CheckpointDir string `json:"checkpoint_dir,omitempty"`
	Resume        bool   `json:"resume,omitempty"`
}

// Validate reports the first problem that would keep the spec from
// executing.
func (s SweepSpec) Validate() error {
	if s.Resume && s.CheckpointDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}
	if s.Deadline < 0 {
		return fmt.Errorf("sweep spec: deadline must be non-negative, got %v", s.Deadline)
	}
	return nil
}

// SimSpec describes one robust PRAM simulation: the flag surface of
// cmd/pramsim as data.
type SimSpec struct {
	// Program names the sample program, one of Programs().
	Program string `json:"program"`
	// N is the simulated processor count; K the matrix dimension,
	// which sizes the matrix program instead.
	N int `json:"n,omitempty"`
	K int `json:"k,omitempty"`
	// P is the real processor count (0 or > program width clamps to
	// the program width).
	P int `json:"p,omitempty"`
	// Adversary is one of SimAdversaries() ("" = no failures);
	// Seed/FailProb/RestartProb parameterize the random one.
	Adversary   string  `json:"adversary,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	FailProb    float64 `json:"fail_prob,omitempty"`
	RestartProb float64 `json:"restart_prob,omitempty"`
	// Engine selects the Write-All engine: "vx" (default) or "x".
	Engine string `json:"engine,omitempty"`
	// PerStep collects Theorem 4.1's per-simulated-step measures
	// instead of validating and returning the final memory.
	PerStep bool `json:"per_step,omitempty"`
}

// Validate reports the first problem that would keep the spec from
// executing. Error strings for unknown program/adversary names match
// the historical CLI messages.
func (s SimSpec) Validate() error {
	pr, err := programs.find("program", s.Program)
	if err != nil {
		return err
	}
	var adv adversaryEntry
	if s.Adversary != "" {
		if adv, err = adversaries.find("adversary", s.Adversary); err != nil || !adv.sim {
			return fmt.Errorf("unknown adversary %q", s.Adversary)
		}
	}
	switch s.Engine {
	case "", "vx", "x":
	default:
		return fmt.Errorf("sim spec: unknown engine %q (want vx or x)", s.Engine)
	}
	if pr.square {
		if s.K <= 0 {
			return fmt.Errorf("sim spec: %s needs k > 0, got %d", s.Program, s.K)
		}
	} else if s.N <= 0 {
		return fmt.Errorf("sim spec: n must be positive, got %d", s.N)
	}
	if adv.random {
		return checkProbs("sim spec", s.FailProb, s.RestartProb)
	}
	return nil
}

// checkProbs range-checks a random adversary's probabilities.
func checkProbs(kind string, fail, restart float64) error {
	if fail < 0 || fail > 1 {
		return fmt.Errorf("%s: fail probability %v outside [0, 1]", kind, fail)
	}
	if restart < 0 || restart > 1 {
		return fmt.Errorf("%s: restart probability %v outside [0, 1]", kind, restart)
	}
	return nil
}
