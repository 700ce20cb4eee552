package engine

import (
	"context"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/pram"
)

// SimResult is the outcome of one robust PRAM simulation.
type SimResult struct {
	// Program is the program's display name; Engine the Write-All
	// engine that drove it ("vx" or "x"); EngineDisplay the engine's
	// human-readable name ("V+X" or "X"), as the CLI prints it.
	Program       string `json:"program"`
	Engine        string `json:"engine"`
	EngineDisplay string `json:"engine_display"`
	// SimN is the simulated processor count N; P the real processor
	// count after clamping; Steps the program length tau.
	SimN  int `json:"sim_n"`
	P     int `json:"p"`
	Steps int `json:"steps"`
	// Metrics is the paper's accounting for the whole simulation.
	Metrics pram.Metrics `json:"metrics"`
	// StepStats holds Theorem 4.1's per-simulated-step measures
	// (PerStep specs only).
	StepStats []core.StepMetric `json:"step_stats,omitempty"`
	// Memory is the final simulated memory (non-PerStep specs only).
	Memory []pram.Word `json:"memory,omitempty"`
	// Validated reports that Memory matched the failure-free semantics
	// (checked for every non-PerStep run; a mismatch is an error).
	Validated bool `json:"validated,omitempty"`
}

// simAdversary constructs a SimSpec's adversary for n simulated and p
// real processors; "" means no failures.
func simAdversary(s SimSpec, n, p int) (pram.Adversary, error) {
	if s.Adversary == "" {
		return adversary.None{}, nil
	}
	return NewAdversary(RunSpec{Adversary: s.Adversary, Seed: s.Seed, FailProb: s.FailProb, RestartProb: s.RestartProb}, n, p)
}

// ExecuteSim validates spec and runs the program robustly on P
// restartable fail-stop processors (Theorem 4.1). Non-PerStep runs
// validate the simulated memory against failure-free semantics;
// PerStep runs collect the per-step measures instead.
//
// ExecuteSim checks ctx before it builds the machine and again after
// every tick, on both paths, and stops at that tick boundary with an
// error wrapping ctx.Err(); the result then carries the metrics so far.
// A simulation keeps no checkpoint: it is deterministic, so an
// interrupted one re-runs from scratch.
func ExecuteSim(ctx context.Context, spec SimSpec) (SimResult, error) {
	var res SimResult
	if err := spec.Validate(); err != nil {
		return res, err
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}

	program, checker, err := NewProgram(spec.Program, spec.N, spec.K)
	if err != nil {
		return res, err
	}
	p := spec.P
	if p == 0 || p > program.Processors() {
		p = program.Processors()
	}

	adv, err := simAdversary(spec, program.Processors(), p)
	if err != nil {
		return res, err
	}

	eng := core.EngineVX
	res.Engine = "vx"
	if spec.Engine == "x" {
		eng = core.EngineX
		res.Engine = "x"
	}
	res.EngineDisplay = eng.String()

	res.Program = program.Name()
	res.SimN = program.Processors()
	res.P = p
	res.Steps = program.Steps()

	if spec.PerStep {
		res.Metrics, res.StepStats, err = core.RunWithStepMetrics(ctx, program, p, adv, pram.Config{}, eng)
		if err != nil {
			return res, fmt.Errorf("execute %s: %w", program.Name(), err)
		}
		return res, nil
	}

	m, err := core.NewMachineWithEngine(program, p, adv, pram.Config{}, eng)
	if err != nil {
		return res, fmt.Errorf("execute %s: %w", program.Name(), err)
	}
	for {
		done, err := m.Step()
		if err != nil {
			res.Metrics = m.Metrics()
			return res, fmt.Errorf("execute %s: %w", program.Name(), err)
		}
		if done {
			break
		}
		if err := ctx.Err(); err != nil {
			res.Metrics = m.Metrics()
			return res, fmt.Errorf("execute %s: canceled at tick %d: %w", program.Name(), m.Tick(), err)
		}
	}
	res.Metrics = m.Metrics()
	res.Memory = core.SimMemory(m.Memory(), program)
	if err := checker.Check(res.Memory); err != nil {
		return res, fmt.Errorf("output validation failed: %w", err)
	}
	res.Validated = true
	return res, nil
}
