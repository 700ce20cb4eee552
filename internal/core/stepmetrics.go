package core

import (
	"context"
	"fmt"

	"repro/internal/pram"
)

// StepMetric is the accounting of one simulated PRAM step (its EXECUTE and
// COMMIT phases together). Theorem 4.1 states its bounds per simulated
// step - "each N-processor PRAM step is executed ... with the completed
// work / overhead ratio ..." - so per-step attribution is the faithful way
// to check them.
type StepMetric struct {
	// Step is the 0-based simulated step.
	Step int
	// S is the completed work attributed to the step.
	S int64
	// F is the number of failure/restart events during the step.
	F int64
	// Ticks is the wall-clock (machine ticks) the step took.
	Ticks int
}

// Sigma returns the step's overhead ratio S/(N + |F|), Definition 2.3
// applied to a single simulated step of width n.
func (sm StepMetric) Sigma(n int) float64 {
	return float64(sm.S) / float64(int64(n)+sm.F)
}

// RunWithStepMetrics executes prog like NewMachine+Run but drives the
// machine tick by tick, attributing work and failure events to the
// simulated step that was active at each tick, and returns the per-step
// metrics alongside the totals. It polls ctx after every tick and stops
// there, with an error wrapping ctx.Err(), once ctx is done.
func RunWithStepMetrics(ctx context.Context, prog Program, p int, adv pram.Adversary, cfg pram.Config, engine Engine) (pram.Metrics, []StepMetric, error) {
	m, err := NewMachineWithEngine(prog, p, adv, cfg, engine)
	if err != nil {
		return pram.Metrics{}, nil, err
	}
	steps := make([]StepMetric, prog.Steps())
	for i := range steps {
		steps[i].Step = i
	}
	lay := newLayout(prog.Processors(), p, prog.MemSize())

	prev := m.Metrics()
	for {
		// The phase cell identifies the active simulated step.
		phi := m.Memory().Load(lay.phase)
		step := int(phi-1) / 2
		if step >= len(steps) {
			step = len(steps) - 1
		}
		done, err := m.Step()
		if err != nil {
			return m.Metrics(), steps, fmt.Errorf("core: step metrics run: %w", err)
		}
		cur := m.Metrics()
		if step >= 0 && step < len(steps) {
			steps[step].S += cur.Completed - prev.Completed
			steps[step].F += cur.FSize() - prev.FSize()
			steps[step].Ticks += cur.Ticks - prev.Ticks
		}
		prev = cur
		if done {
			return cur, steps, nil
		}
		if err := ctx.Err(); err != nil {
			return cur, steps, fmt.Errorf("core: step metrics run canceled at tick %d: %w", cur.Ticks, err)
		}
	}
}

// MaxStepSigma returns the largest per-step overhead ratio - the quantity
// Theorem 4.1 bounds by O(log^2 N).
func MaxStepSigma(steps []StepMetric, n int) float64 {
	var maxSigma float64
	for _, sm := range steps {
		if s := sm.Sigma(n); s > maxSigma {
			maxSigma = s
		}
	}
	return maxSigma
}
