package pram

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
)

// The tests below drive full runs of strideAlg, a terminating
// checkpointing writer whose processors are Resettable (testProc), so a
// pooled Runner can recycle them across runs.

// strideAlg is a checkpointing strided writer: processor pid writes
// cells pid, pid+P, pid+2P, ... keeping its position in the stable
// counter.
func strideAlg() *testAlg {
	return &testAlg{
		name: "stride",
		cycle: func(pid int, ctx *Ctx) Status {
			k := int(ctx.Stable())
			addr := pid + k*ctx.P()
			if addr >= ctx.N() {
				return Halt
			}
			ctx.Write(addr, 1)
			ctx.SetStable(Word(k + 1))
			return Continue
		},
		done: oneShotWriter().done,
	}
}

// TestRunnerFullRunAllocationFree extends the steady-state-tick contract
// to whole runs: once a Runner is warm, a complete Runner.Run — reset,
// setup, every tick through the run loop's TickBatch(1), termination —
// allocates nothing. This is what makes
// sweep grids (thousands of runs) allocation-free, not just tick loops.
func TestRunnerFullRunAllocationFree(t *testing.T) {
	const n, p = 256, 64

	t.Run("failure-free", func(t *testing.T) {
		var r Runner
		defer r.Close()
		alg := strideAlg()
		adv := &funcAdversary{name: "none"}
		run := func() {
			if _, err := r.Run(Config{N: n, P: p}, alg, adv); err != nil {
				t.Fatalf("Run: %v", err)
			}
		}
		run() // warm the pooled machine
		if avg := testing.AllocsPerRun(20, run); avg != 0 {
			t.Errorf("pooled full run allocates %.2f objects/op, want 0", avg)
		}
	})

	// With failures and restarts the machine must still not allocate:
	// dying processors stay in their slots and restarts reset them in
	// place (revive). The adversary reuses its failure slice and
	// restart slice; the machine never mutates either.
	t.Run("fail-restart", func(t *testing.T) {
		var r Runner
		defer r.Close()
		alg := strideAlg()
		failures := []Failure{{PID: 1, Point: FailAfterReads}}
		restarts := []int{1}
		adv := &funcAdversary{
			name: "blinker",
			f: func(v *View) Decision {
				switch v.Tick % 4 {
				case 1:
					failures[0] = Failure{PID: 1, Point: FailAfterReads}
					return Decision{Failures: failures}
				case 3:
					return Decision{Restarts: restarts}
				}
				return Decision{}
			},
		}
		run := func() {
			got, err := r.Run(Config{N: n, P: p}, alg, adv)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got.Failures == 0 || got.Restarts == 0 {
				t.Fatalf("adversary inert: %+v", got)
			}
		}
		run()
		if avg := testing.AllocsPerRun(20, run); avg != 0 {
			t.Errorf("pooled fail-restart run allocates %.2f objects/op, want 0", avg)
		}
	})
}

// TestRunnerReusesMachine checks the pooling contract directly: the same
// *Machine is handed back across runs, and Close drops it.
func TestRunnerReusesMachine(t *testing.T) {
	var r Runner
	alg := strideAlg()
	adv := &funcAdversary{name: "none"}
	m1, err := r.Machine(Config{N: 16, P: 4}, alg, adv)
	if err != nil {
		t.Fatalf("Machine: %v", err)
	}
	if _, err := m1.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	m2, err := r.Machine(Config{N: 16, P: 4}, alg, adv)
	if err != nil {
		t.Fatalf("Machine (2nd): %v", err)
	}
	if m1 != m2 {
		t.Error("Runner built a new machine instead of resetting the pooled one")
	}
	r.Close()
	m3, err := r.Machine(Config{N: 16, P: 4}, alg, adv)
	if err != nil {
		t.Fatalf("Machine (post-Close): %v", err)
	}
	if m3 == m1 {
		t.Error("Runner reused a closed machine")
	}
	r.Close()
}

// TestMachineResetRejects covers Reset's error paths: invalid shapes and
// use after Close.
func TestMachineResetRejects(t *testing.T) {
	alg := strideAlg()
	adv := &funcAdversary{name: "none"}
	m, err := New(Config{N: 16, P: 4}, alg, adv)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.Reset(Config{N: 0, P: 4}, alg, adv); err == nil {
		t.Error("Reset accepted N=0")
	}
	// The failed Reset must not have broken the machine.
	if err := m.Reset(Config{N: 16, P: 4}, alg, adv); err != nil {
		t.Fatalf("Reset after failed Reset: %v", err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run after Reset: %v", err)
	}
	m.Close()
	if err := m.Reset(Config{N: 16, P: 4}, alg, adv); err == nil {
		t.Error("Reset accepted a closed machine")
	}
}

// TestResetAcrossAlgorithmChange makes sure instance gating is what
// protects processor recycling: switching the Algorithm value between
// runs must rebuild processors via NewProcessor, and switching back must
// not resurrect processors of the wrong vintage (the clear-on-change
// path), all while producing correct runs.
func TestResetAcrossAlgorithmChange(t *testing.T) {
	const n, p = 64, 16
	var r Runner
	defer r.Close()
	a := strideAlg()
	b := strideAlg()
	adv := &funcAdversary{name: "none"}
	for i, alg := range []*testAlg{a, b, a, b, a} {
		m, err := r.Machine(Config{N: n, P: p}, alg, adv)
		if err != nil {
			t.Fatalf("run %d: Machine: %v", i, err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("run %d: Run: %v", i, err)
		}
		for addr := 0; addr < n; addr++ {
			if m.Memory().Load(addr) == 0 {
				t.Fatalf("run %d: cell %d unset", i, addr)
			}
		}
	}
}

// stepSink records the per-tick event stream of a run.
type stepSink struct {
	cycles []CycleEvent
	ticks  []TickEvent
}

func (s *stepSink) CycleDone(ev CycleEvent) { s.cycles = append(s.cycles, ev) }
func (s *stepSink) TickDone(ev TickEvent)   { s.ticks = append(s.ticks, ev) }
func (s *stepSink) RunDone(RunEvent)        {}

// loopOutcome is what one run leaves behind: metrics, memory, error, and
// the last checkpoint saved (nil without checkpointing).
type loopOutcome struct {
	metrics Metrics
	mem     []Word
	err     string
	ckpt    *Snapshot
}

func (o loopOutcome) equal(t *testing.T, label string, want loopOutcome) {
	t.Helper()
	if o.err != want.err {
		t.Fatalf("%s: err = %q, want %q", label, o.err, want.err)
	}
	if o.metrics != want.metrics {
		t.Errorf("%s: metrics diverge:\ngot  %+v\nwant %+v", label, o.metrics, want.metrics)
	}
	if !reflect.DeepEqual(o.mem, want.mem) {
		t.Errorf("%s: final memory diverges", label)
	}
}

// TestRunnerLoopEquivalence is the contract of the Runner's one drive
// loop: at every BatchTicks x CheckpointEvery, Runner.RunCtx ends with
// the metrics, memory and error of a bare Step loop, over batchable
// (stripe-fill, seq-fill) and non-batchable (stride) algorithms under a
// quiescent and a churning adversary. With a plain sink it delivers the
// Step loop's exact per-tick event stream; with a BatchSink it commits
// quiet windows only when a batch is longer than one tick — and does
// commit them on the quiescent batchable rows, so the loop cannot
// silently stop batching; and its checkpoints land on the same ticks,
// holding the same state, at every BatchTicks.
func TestRunnerLoopEquivalence(t *testing.T) {
	algs := []struct {
		name      string
		alg       Algorithm
		cfg       Config
		batchable bool
	}{
		// stripe-fill's P = 7 rows straddle words; its N keeps each
		// processor's 22 strides shorter than churn's 35-tick period
		// between hits on the same PID, which restart it from row 0.
		{"stripe-fill", stripeFill{}, Config{N: 150, P: 7, MaxTicks: 4000}, true},
		{"seq-fill", seqFill{}, Config{N: 64, P: 4, MaxTicks: 4000}, true},
		{"stride", strideAlg(), Config{N: 64, P: 8, MaxTicks: 4000}, false},
	}
	advs := []struct {
		name  string
		mk    func() Adversary
		quiet bool
	}{
		{"quiet", func() Adversary { return quietAdv{} }, true},
		{"churn", func() Adversary { return churnAdversary() }, false},
	}
	loop := func(t *testing.T, cfg Config, alg Algorithm, adv Adversary, batch, every int) loopOutcome {
		t.Helper()
		r := &Runner{BatchTicks: batch, CheckpointEvery: every}
		if every > 0 {
			r.CheckpointPath = filepath.Join(t.TempDir(), "run.snap")
		}
		defer r.Close()
		var out loopOutcome
		var err error
		if out.metrics, err = r.RunCtx(context.Background(), cfg, alg, adv); err != nil {
			out.err = err.Error()
		}
		out.mem = r.m.Memory().CopyInto(nil)
		if every > 0 {
			if out.ckpt, err = LoadSnapshot(r.CheckpointPath); err != nil {
				t.Fatalf("BatchTicks=%d: no checkpoint saved: %v", batch, err)
			}
		}
		return out
	}

	for _, a := range algs {
		for _, adv := range advs {
			t.Run(a.name+"/"+adv.name, func(t *testing.T) {
				var wantEvents stepSink
				cfg := a.cfg
				cfg.Sink = &wantEvents
				m := mustMachine(t, cfg, a.alg, adv.mk())
				var want loopOutcome
				var err error
				if want.metrics, err = m.Run(); err != nil {
					want.err = err.Error()
				}
				want.mem = m.Memory().CopyInto(nil)
				if want.err != "" || !adv.quiet && want.metrics.Failures == 0 {
					t.Fatalf("reference run: err %q, %d failures; want a completed run, churned unless quiet",
						want.err, want.metrics.Failures)
				}

				for _, every := range []int{0, 3} {
					var wantCkpt *Snapshot
					for _, batch := range []int{0, 1, 5, 64} {
						label := fmt.Sprintf("BatchTicks=%d/CheckpointEvery=%d", batch, every)

						var events stepSink
						cfg.Sink = &events
						plain := loop(t, cfg, a.alg, adv.mk(), batch, every)
						plain.equal(t, label, want)
						if !reflect.DeepEqual(events, wantEvents) {
							t.Errorf("%s: per-tick events diverge from the Step loop (%d ticks, %d cycles; want %d, %d)",
								label, len(events.ticks), len(events.cycles), len(wantEvents.ticks), len(wantEvents.cycles))
						}

						var bs batchRecSink
						cfg.Sink = &bs
						batched := loop(t, cfg, a.alg, adv.mk(), batch, every)
						batched.equal(t, label+"/BatchSink", want)
						switch {
						case (batch <= 1 || !a.batchable) && len(bs.batches) > 0:
							t.Errorf("%s: %d quiet windows committed, want none", label, len(bs.batches))
						case batch == 64 && a.batchable && adv.quiet && len(bs.batches) == 0:
							t.Errorf("%s: no quiet window committed on a quiescent batchable run", label)
						}

						if every == 0 {
							continue
						}
						if wantCkpt == nil {
							wantCkpt = plain.ckpt
						}
						for _, ckpt := range []*Snapshot{plain.ckpt, batched.ckpt} {
							if !reflect.DeepEqual(ckpt, wantCkpt) {
								t.Errorf("%s: checkpoint at tick %d diverges from BatchTicks=0's at tick %d",
									label, ckpt.Tick, wantCkpt.Tick)
							}
						}
					}
				}
			})
		}
	}
}
