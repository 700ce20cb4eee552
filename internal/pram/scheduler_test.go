package pram

import "testing"

// strideAlg is a checkpointing strided writer used by scheduler tests.
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

func TestSchedulerRoundRobin(t *testing.T) {
	// Only one processor runs per tick (round robin): a deterministic
	// model of full asynchrony. The task still completes; work equals
	// the per-processor shares.
	const n, p = 12, 3
	cfg := Config{N: n, P: p,
		Scheduler: func(tick, pid int) bool { return pid == tick%p }}
	m := mustMachine(t, cfg, strideAlg(), &funcAdversary{})
	got, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// One completed cycle per tick at most.
	if got.Completed > int64(got.Ticks) {
		t.Errorf("Completed = %d over %d ticks; round robin runs one processor per tick",
			got.Completed, got.Ticks)
	}
}

func TestSchedulerUnscheduledProcessorsIdleUncharged(t *testing.T) {
	const n, p = 8, 4
	// pid 0 never runs; others do all the work.
	tracker := NewProcTracker(p)
	cfg := Config{N: n, P: p, Sink: tracker,
		Scheduler: func(tick, pid int) bool { return pid != 0 }}
	alg := &testAlg{
		name: "cover",
		cycle: func(pid int, ctx *Ctx) Status {
			k := int(ctx.Stable())
			// Stride over the whole array by the 3 running processors.
			addr := (pid - 1) + k*(ctx.P()-1)
			if pid == 0 || addr >= ctx.N() {
				if pid == 0 {
					return Continue
				}
				return Halt
			}
			ctx.Write(addr, 1)
			ctx.SetStable(Word(k + 1))
			return Continue
		},
		done: oneShotWriter().done,
	}
	m := mustMachine(t, cfg, alg, &funcAdversary{})
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if w := tracker.Work(); w[0] != 0 {
		t.Errorf("unscheduled pid 0 was charged %d cycles", w[0])
	}
}

func TestSchedulerKillOfUnscheduledProcessorLeaksNoWrites(t *testing.T) {
	const n, p = 4, 2
	// pid 1 runs only on tick 0 (buffering a write via its context), is
	// unscheduled afterwards, and is killed with FailAfterWrite1 on tick
	// 2: no stale write may land.
	sched := func(tick, pid int) bool { return pid == 0 || tick == 0 }
	adv := &funcAdversary{name: "t", f: func(v *View) Decision {
		if v.Tick == 2 {
			return Decision{Failures: []Failure{{PID: 1, Point: FailAfterWrite1}}}
		}
		return Decision{}
	}}
	alg := &testAlg{
		name:    "t",
		memSize: func(n, p int) int { return 8 },
		cycle: func(pid int, ctx *Ctx) Status {
			if pid == 1 {
				// Would write cell 7 if its stale context leaked.
				if ctx.Tick() == 0 {
					ctx.Write(6, 1) // legitimate tick-0 write
				} else {
					ctx.Write(7, 1)
				}
				return Continue
			}
			k := int(ctx.Stable())
			if k >= ctx.N() {
				return Halt
			}
			ctx.Write(k, 1)
			ctx.SetStable(Word(k + 1))
			return Continue
		},
		done: oneShotWriter().done,
	}
	m := mustMachine(t, Config{N: n, P: p, Scheduler: sched}, alg, adv)
	got, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Failures != 1 {
		t.Fatalf("Failures = %d, want 1", got.Failures)
	}
	if m.Memory().Load(6) != 1 {
		t.Error("tick-0 write missing")
	}
	if m.Memory().Load(7) != 0 {
		t.Error("stale context write leaked on kill of unscheduled processor")
	}
}

func TestSchedulerEmptyScheduleRunsEveryone(t *testing.T) {
	cfg := Config{N: 8, P: 4, Scheduler: func(tick, pid int) bool { return false }}
	m := mustMachine(t, cfg, strideAlg(), &funcAdversary{})
	got, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Completed == 0 {
		t.Error("no work despite the everyone-runs fallback")
	}
}

func TestSchedulerVetoSparesAnExecutingProcessor(t *testing.T) {
	// Kill every scheduled processor; the veto must spare one that is
	// actually executing (sparing an idle one would stall the tick).
	const n, p = 8, 4
	sched := func(tick, pid int) bool { return pid < 2 } // only 0,1 run
	adv := &funcAdversary{name: "t", f: func(v *View) Decision {
		dec := Decision{}
		for pid := 0; pid < v.States.Len(); pid++ {
			switch v.States.At(pid) {
			case Alive:
				dec.Failures = append(dec.Failures, Failure{PID: pid, Point: FailBeforeReads})
			case Dead:
				dec.Restarts = append(dec.Restarts, pid)
			}
		}
		return dec
	}}
	m := mustMachine(t, Config{N: n, P: p, Scheduler: sched}, strideAlg(), adv)
	got, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Vetoes == 0 {
		t.Error("no vetoes recorded")
	}
	if got.Completed == 0 {
		t.Error("no cycles completed; the spared processor must be a scheduled one")
	}
}
