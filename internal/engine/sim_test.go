package engine

import (
	"context"
	"errors"
	"testing"
)

// pollCtx is a context whose cancellation shows from its trip-th Err
// call on, so a test can cancel a run at an exact poll.
type pollCtx struct {
	context.Context
	polls, trip int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls >= c.trip {
		return context.Canceled
	}
	return nil
}

// TestExecuteSimStopsAtCanceledTick checks that ExecuteSim polls its
// context once before it builds the machine and once after every tick,
// on the plain and the PerStep path: a context whose cancellation shows
// from its (k+1)-th poll stops an odd-even-sort sim, which runs for
// thousands of ticks, at tick k with an error wrapping context.Canceled.
func TestExecuteSimStopsAtCanceledTick(t *testing.T) {
	const k = 40
	for _, perStep := range []bool{false, true} {
		spec := SimSpec{Program: "odd-even-sort", N: 32, Adversary: "random",
			Seed: 1, FailProb: 0.05, RestartProb: 0.5, PerStep: perStep}
		ctx := &pollCtx{Context: context.Background(), trip: k + 1}
		res, err := ExecuteSim(ctx, spec)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("per_step=%v: err = %v, want context.Canceled", perStep, err)
		}
		if res.Metrics.Ticks != k || ctx.polls != k+1 {
			t.Errorf("per_step=%v: stopped at tick %d after %d polls, want tick %d after %d",
				perStep, res.Metrics.Ticks, ctx.polls, k, k+1)
		}
	}
}
