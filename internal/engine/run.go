package engine

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"slices"

	"repro/internal/adversary"
	"repro/internal/pram"
)

// RunOptions carries per-invocation wiring that is not part of the
// spec: extra sinks (a daemon's event stream), warning/log routing, and
// the job service's crash-recovery snapshot. The zero value is usable.
type RunOptions struct {
	// Sink, if non-nil, receives the run's event stream in addition to
	// any sinks the spec configures (CSV, trace).
	Sink pram.Sink
	// Warnf receives human-readable degradation notices (checkpoint
	// fallback, failed pattern record). Nil prints to stderr, matching
	// the historical CLI behavior.
	Warnf func(format string, args ...any)
	// Logf routes the Runner's notices; nil means the Runner's default
	// (log.Printf).
	Logf func(format string, args ...any)
	// Snapshot, if non-nil, resumes the run from it instead of starting
	// fresh: the job service's crash recovery loads a job's checkpoint
	// once, cuts its event trace to the snapshot's tick, and resumes
	// here. A spec's RestorePath takes precedence.
	Snapshot *pram.Snapshot
}

func (o RunOptions) warnf(format string, args ...any) {
	if o.Warnf != nil {
		o.Warnf(format, args...)
		return
	}
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// RunResult is the outcome of one Write-All run.
type RunResult struct {
	// Algorithm and Adversary are the display names of the constructed
	// pair (the adversary's may embed parameters).
	Algorithm string `json:"algorithm"`
	Adversary string `json:"adversary"`
	// N and P are the effective sizes (a restore overrides the spec's).
	N int `json:"n"`
	P int `json:"p"`
	// Metrics is the paper's accounting for the run.
	Metrics pram.Metrics `json:"metrics"`
	// Violations records adversary contract breaches observed during
	// the run; they are diagnostics, reported whether or not the run
	// completed.
	Violations []pram.Violation `json:"violations,omitempty"`
	// ResumedFromTick is the snapshot tick the run restarted from
	// (0 for a fresh run).
	ResumedFromTick int `json:"resumed_from_tick,omitempty"`
}

// idle holds the Runner of the last finished ExecuteRun, so the next
// call reuses its machine — shared memory, processors, scratch buffers,
// all reset bit-identically (Machine.Reset) — instead of allocating
// one. At N = 10⁸ packed that machine holds a 12.5 MB array: allocated
// afresh each run, the dead arrays of earlier runs wait for the
// collector while the next run allocates its own, and the resident set
// peaks at two or three of them. The one slot keeps at most one idle
// machine, never larger than one the process already ran. A sync.Pool
// would let the collector take it back, but its per-P slots miss
// whenever the caller moves to another P, so reuse would hang on
// scheduling.
var idle = make(chan *pram.Runner, 1)

// takeRunner returns the idle Runner, or a new one.
func takeRunner() *pram.Runner {
	select {
	case r := <-idle:
		return r
	default:
		return new(pram.Runner)
	}
}

// parkRunner keeps r for the next ExecuteRun when the slot is free and
// closes it otherwise.
func parkRunner(r *pram.Runner) {
	select {
	case idle <- r:
	default:
		r.Close()
	}
}

// ExecuteRun validates spec and drives one Write-All run to completion:
// restore or resume, sink construction (CSV profile, JSON-lines trace,
// any extra sink), algorithm/adversary construction (including pattern
// replay and recording), Runner checkpointing, and contract-violation
// collection. The RunResult is meaningful even on error — Violations
// and Metrics reflect whatever the run reached.
func ExecuteRun(ctx context.Context, spec RunSpec, opt RunOptions) (RunResult, error) {
	var res RunResult
	if err := spec.Validate(); err != nil {
		return res, err
	}

	// A restore or resume fixes the machine shape; the spec then only
	// selects the (matching) algorithm and adversary constructions.
	snap := opt.Snapshot
	if spec.RestorePath != "" {
		var err error
		if snap, err = pram.LoadCheckpoint(spec.RestorePath, opt.warnf); err != nil {
			return res, err
		}
	}
	if snap != nil {
		spec.N, spec.P = snap.N, snap.P
	}
	if spec.P == 0 {
		spec.P = spec.N
	}

	cfg := pram.Config{N: spec.N, P: spec.P, MaxTicks: spec.MaxTicks, Packed: spec.Packed}

	var sinks pram.MultiSink
	if spec.CSVPath != "" {
		csvFile, err := os.Create(spec.CSVPath)
		if err != nil {
			return res, fmt.Errorf("create csv: %w", err)
		}
		defer csvFile.Close()
		fmt.Fprintln(csvFile, "tick,alive,completed,failures,restarts")
		sinks = append(sinks, pram.TickFunc(func(ev pram.TickEvent) {
			fmt.Fprintf(csvFile, "%d,%d,%d,%d,%d\n",
				ev.Tick, ev.Alive, ev.Completed, ev.Failures, ev.Restarts)
		}))
	}
	var jsonl *pram.JSONL
	if spec.TracePath != "" {
		traceFile, err := os.Create(spec.TracePath)
		if err != nil {
			return res, fmt.Errorf("create trace: %w", err)
		}
		defer traceFile.Close()
		buffered := bufio.NewWriter(traceFile)
		defer buffered.Flush()
		jsonl = pram.NewJSONL(buffered)
		jsonl.Ticks = spec.TraceTicksOnly
		if spec.TraceSample > 1 {
			jsonl.Sample = spec.TraceSample
		}
		sinks = append(sinks, jsonl)
	}
	if opt.Sink != nil {
		sinks = append(sinks, opt.Sink)
	}
	switch len(sinks) {
	case 0:
	case 1:
		cfg.Sink = sinks[0]
	default:
		cfg.Sink = sinks
	}

	alg, allowSnapshot, err := NewAlgorithm(spec.Algorithm, spec.Seed)
	if err != nil {
		return res, err
	}
	cfg.AllowSnapshot = allowSnapshot

	var adv pram.Adversary
	if spec.ReplayPath != "" {
		f, err := os.Open(spec.ReplayPath)
		if err != nil {
			return res, fmt.Errorf("open pattern: %w", err)
		}
		pattern, err := adversary.ReadPattern(f)
		f.Close()
		if err != nil {
			return res, err
		}
		adv = adversary.NewScheduled(pattern)
	} else {
		adv, err = NewAdversary(spec, spec.N, spec.P)
		if err != nil {
			return res, err
		}
	}

	var recorder *adversary.Recorder
	if spec.RecordPath != "" {
		recorder = adversary.NewRecorder(adv)
		adv = recorder
	}

	every := spec.CheckpointEvery
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	runner := takeRunner()
	defer parkRunner(runner)
	runner.CheckpointPath, runner.CheckpointEvery = spec.CheckpointPath, every
	runner.BatchTicks, runner.Log = spec.BatchTicks, opt.Logf

	res.Algorithm = alg.Name()
	res.Adversary = adv.Name()
	res.N, res.P = spec.N, spec.P

	var m pram.Metrics
	if snap != nil {
		res.ResumedFromTick = snap.Tick
		m, err = runner.ResumeCtx(ctx, cfg, alg, adv, snap)
	} else {
		m, err = runner.RunCtx(ctx, cfg, alg, adv)
	}
	res.Metrics = m
	if v := runner.Violations(); len(v) > 0 {
		// The parked machine reuses its violation records next run.
		res.Violations = slices.Clone(v)
	}
	if err != nil {
		// On interruption the Runner has already flushed a final
		// checkpoint (when checkpointing is configured), so the run is
		// resumable.
		return res, fmt.Errorf("%s under %s: %w", alg.Name(), adv.Name(), err)
	}
	if jsonl != nil && jsonl.Err() != nil {
		return res, fmt.Errorf("write trace: %w", jsonl.Err())
	}
	if recorder != nil {
		f, err := os.Create(spec.RecordPath)
		if err != nil {
			return res, fmt.Errorf("create pattern file: %w", err)
		}
		defer f.Close()
		if err := adversary.WritePattern(f, recorder.Pattern()); err != nil {
			return res, err
		}
	}
	return res, nil
}
