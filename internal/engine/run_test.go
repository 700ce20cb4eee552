package engine

import (
	"context"
	"reflect"
	"testing"
)

// TestExecuteRunReuseIsInvisible checks the idle Runner behind
// ExecuteRun: a run's result must not depend on which earlier run's
// machine it inherits. Each spec runs after a different predecessor in
// the forward and reverse passes — other algorithms, shapes, memory
// layouts, kernels and batch settings — and must reproduce its result
// exactly. A result's violation records must also survive later runs
// that reuse the machine's records.
func TestExecuteRunReuseIsInvisible(t *testing.T) {
	specs := []RunSpec{
		{Algorithm: "X", Adversary: "none", N: 64, P: 16},
		{Algorithm: "V", Adversary: "random", N: 128, P: 32, Seed: 3, FailProb: 0.2, RestartProb: 0.6},
		{Algorithm: "trivial", Adversary: "none", N: 1000, P: 96, Packed: true, BatchTicks: 64},
		{Algorithm: "sequential", Adversary: "halving", N: 200, P: 8, Packed: true, BatchTicks: 16},
		// Two runs that record different violations back to back.
		{Algorithm: "X", Adversary: "random", N: 32, P: 4, Seed: 5, FailProb: 0.95, RestartProb: 0.2},
		{Algorithm: "X", Adversary: "random", N: 32, P: 4, Seed: 7, FailProb: 0.5, RestartProb: 0.2},
		{Algorithm: "W", Adversary: "thrashing", N: 64, P: 64, Workers: 2},
		{Algorithm: "trivial", Adversary: "random", N: 512, P: 64, Seed: 9, FailProb: 0.1, RestartProb: 0.5, MaxEvents: 40, Packed: true, BatchTicks: 4096},
	}
	run := func(spec RunSpec) RunResult {
		t.Helper()
		res, err := ExecuteRun(context.Background(), spec, RunOptions{})
		if err != nil {
			t.Fatalf("%s under %s: %v", spec.Algorithm, spec.Adversary, err)
		}
		return res
	}
	forward := make([]RunResult, len(specs))
	for i, spec := range specs {
		forward[i] = run(spec)
	}
	if reflect.DeepEqual(forward[4].Violations, forward[5].Violations) || len(forward[4].Violations) == 0 {
		t.Fatalf("specs 4 and 5 must record different violations, got %v and %v", forward[4].Violations, forward[5].Violations)
	}
	for i := len(specs) - 1; i >= 0; i-- {
		if got := run(specs[i]); !reflect.DeepEqual(got, forward[i]) {
			t.Errorf("spec %d: result depends on the machine it inherited:\nforward %+v\nreverse %+v", i, forward[i], got)
		}
	}
}
