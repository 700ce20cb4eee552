package failstop

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/pram"
)

// recSink records the full event stream of a run for trace comparison.
type recSink struct {
	cycles []pram.CycleEvent
	ticks  []pram.TickEvent
	runs   []runRecord
}

// runRecord flattens RunEvent's error for comparability.
type runRecord struct {
	metrics pram.Metrics
	err     string
}

func (r *recSink) CycleDone(ev pram.CycleEvent) { r.cycles = append(r.cycles, ev) }
func (r *recSink) TickDone(ev pram.TickEvent)   { r.ticks = append(r.ticks, ev) }
func (r *recSink) RunDone(ev pram.RunEvent) {
	rec := runRecord{metrics: ev.Metrics}
	if ev.Err != nil {
		rec.err = ev.Err.Error()
	}
	r.runs = append(r.runs, rec)
}

// kernelRun is one run's complete observable outcome.
type kernelRun struct {
	metrics pram.Metrics
	mem     []Word
	trace   recSink
	err     string
}

// runStepped runs alg against adv on a fresh machine through the bare
// Step loop (Machine.Run): the reference every equivalence grid compares
// against.
func runStepped(t *testing.T, mkAlg func() Algorithm, mkAdv func() Adversary, cfg Config) kernelRun {
	t.Helper()
	var out kernelRun
	cfg.Sink = &out.trace
	m, err := pram.New(cfg, mkAlg(), mkAdv())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer m.Close()
	out.metrics, err = m.Run()
	if err != nil {
		out.err = err.Error()
	}
	out.mem = m.Memory().CopyInto(nil)
	return out
}

// runLoop runs alg against adv through the Runner's drive loop
// (Runner.RunCtx) with the given BatchTicks, capturing the same
// observables as runStepped.
func runLoop(t *testing.T, mkAlg func() Algorithm, mkAdv func() Adversary, cfg Config, batch int) kernelRun {
	t.Helper()
	r := &pram.Runner{BatchTicks: batch}
	defer r.Close()
	// RunCtx resets and reruns the Runner's pooled machine, so taking
	// the machine first (with throwaway components) leaves its handle
	// holding the run's final memory.
	m, err := r.Machine(cfg, mkAlg(), mkAdv())
	if err != nil {
		t.Fatalf("Runner.Machine: %v", err)
	}
	var out kernelRun
	cfg.Sink = &out.trace
	out.metrics, err = r.RunCtx(context.Background(), cfg, mkAlg(), mkAdv())
	if err != nil {
		out.err = err.Error()
	}
	out.mem = m.Memory().CopyInto(nil)
	return out
}

// TestKernelEquivalence is the determinism contract of the tick kernel's
// one run loop: for every Write-All algorithm x adversary pairing, a run
// driven by Runner.RunCtx, which advances through Machine.TickBatch, is
// bit-identical to a bare Step loop in metrics, final memory, event
// traces, and errors, at BatchTicks 1 (one Step per iteration) and 64.
// The recording sink is not a BatchSink, so even 64-tick batches must
// deliver the exact per-tick event stream. Runs that legitimately do not terminate
// (V under the rotating thrasher) are compared at the tick-budget
// cutoff, which must also coincide.
func TestKernelEquivalence(t *testing.T) {
	const n, p = 64, 16
	base := Config{N: n, P: p, MaxTicks: 4000}
	snapshot := base
	snapshot.AllowSnapshot = true

	algs := []struct {
		name string
		cfg  Config
		mk   func() Algorithm
	}{
		{"X", base, NewX},
		{"X-in-place", base, NewXInPlace},
		{"V", base, NewV},
		{"combined", base, NewCombined},
		{"W", base, NewW},
		{"oblivious", snapshot, NewOblivious},
		{"ACC", base, func() Algorithm { return NewACC(11) }},
		{"trivial", base, NewTrivial},
		{"sequential", base, NewSequential},
		{"replicated", base, NewReplicated},
	}
	advs := []struct {
		name string
		mk   func() Adversary
	}{
		{"none", NoFailures},
		{"random", func() Adversary { return RandomFailures(0.2, 0.6, 7) }},
		{"random-budgeted", func() Adversary { return BudgetedRandomFailures(0.3, 0.7, 13, 64) }},
		{"thrashing", func() Adversary { return ThrashingAdversary(false) }},
		{"rotating", func() Adversary { return ThrashingAdversary(true) }},
		{"halving", HalvingAdversary},
	}

	for _, alg := range algs {
		for _, adv := range advs {
			t.Run(alg.name+"/"+adv.name, func(t *testing.T) {
				assertLoopMatchesStep(t, alg.mk, adv.mk, alg.cfg)
			})
		}
	}

	// The tree-walking adversaries read algorithm X's progress-tree
	// layout out of shared memory, so they only pair with X.
	treeAdvs := []struct {
		name string
		mk   func() Adversary
	}{
		{"postorder", func() Adversary { return PostOrderAdversary(n, p) }},
		{"stalking", func() Adversary { return StalkingAdversary(n, p, true) }},
		{"stalking-failstop", func() Adversary { return StalkingAdversary(n, p, false) }},
	}
	for _, adv := range treeAdvs {
		t.Run("X/"+adv.name, func(t *testing.T) {
			assertLoopMatchesStep(t, NewX, adv.mk, base)
		})
	}
}

// assertLoopMatchesStep holds the Runner's loop at BatchTicks 1 and 64
// to the bare Step loop's outcome.
func assertLoopMatchesStep(t *testing.T, mkAlg func() Algorithm, mkAdv func() Adversary, cfg Config) {
	t.Helper()
	stepped := runStepped(t, mkAlg, mkAdv, cfg)
	for _, batch := range []int{1, 64} {
		looped := runLoop(t, mkAlg, mkAdv, cfg, batch)
		assertRunsEqual(t, fmt.Sprintf("BatchTicks=%d", batch), stepped, looped)
	}
}

func assertRunsEqual(t *testing.T, label string, want, got kernelRun) {
	t.Helper()
	if want.err != got.err {
		t.Fatalf("%s: err = %q, want %q", label, got.err, want.err)
	}
	if want.metrics != got.metrics {
		t.Errorf("%s: metrics diverge:\nwant %+v\ngot  %+v", label, want.metrics, got.metrics)
	}
	if !reflect.DeepEqual(want.mem, got.mem) {
		t.Errorf("%s: final memory diverges", label)
	}
	if !reflect.DeepEqual(want.trace.ticks, got.trace.ticks) {
		t.Errorf("%s: tick traces diverge (want %d events, got %d)",
			label, len(want.trace.ticks), len(got.trace.ticks))
	}
	if !reflect.DeepEqual(want.trace.cycles, got.trace.cycles) {
		t.Errorf("%s: cycle traces diverge (want %d events, got %d)",
			label, len(want.trace.cycles), len(got.trace.cycles))
	}
	if !reflect.DeepEqual(want.trace.runs, got.trace.runs) {
		t.Errorf("%s: run events diverge: want %+v, got %+v", label, want.trace.runs, got.trace.runs)
	}
}

// TestKernelEquivalenceSquare repeats the run-loop contract at P = N,
// where every processor owns one cell and write conflicts peak.
func TestKernelEquivalenceSquare(t *testing.T) {
	const n = 32
	base := Config{N: n, P: n, MaxTicks: 4000}
	for _, alg := range []struct {
		name string
		mk   func() Algorithm
	}{
		{"X", NewX},
		{"V", NewV},
		{"combined", NewCombined},
	} {
		t.Run(alg.name, func(t *testing.T) {
			mkAdv := func() Adversary { return RandomFailures(0.25, 0.5, 3) }
			assertLoopMatchesStep(t, alg.mk, mkAdv, base)
		})
	}
}
