package pram

import (
	"errors"
	"testing"
)

// testAlg is a configurable probe algorithm for machine-semantics tests:
// processor pid runs cycle(pid, ctx) every tick.
type testAlg struct {
	name    string
	memSize func(n, p int) int
	setup   func(mem *Memory, n, p int)
	cycle   func(pid int, ctx *Ctx) Status
	done    func(mem MemoryView, n, p int) bool
}

func (a *testAlg) Name() string { return a.name }

func (a *testAlg) MemorySize(n, p int) int {
	if a.memSize != nil {
		return a.memSize(n, p)
	}
	return n
}

func (a *testAlg) Setup(mem *Memory, n, p int) {
	if a.setup != nil {
		a.setup(mem, n, p)
	}
}

func (a *testAlg) NewProcessor(pid, n, p int) Processor {
	return &testProc{pid: pid, cycle: a.cycle}
}

func (a *testAlg) Done(mem MemoryView, n, p int) bool {
	if a.done == nil {
		return false
	}
	return a.done(mem, n, p)
}

type testProc struct {
	pid   int
	cycle func(pid int, ctx *Ctx) Status
}

func (p *testProc) Cycle(ctx *Ctx) Status { return p.cycle(p.pid, ctx) }

// Reset implements Resettable: a testProc's only state is its PID and the
// algorithm's cycle closure, which same-instance gating keeps valid.
func (p *testProc) Reset(pid, n, pp int) { p.pid = pid }

// SnapshotState and RestoreState implement Snapshotter for the same
// reason: a testProc has no private state a snapshot must carry.
func (p *testProc) SnapshotState() []Word           { return nil }
func (p *testProc) RestoreState(state []Word) error { return nil }

// funcAdversary adapts a closure to the Adversary interface.
type funcAdversary struct {
	name string
	f    func(v *View) Decision
}

func (a *funcAdversary) Name() string { return a.name }

func (a *funcAdversary) Decide(v *View) Decision {
	if a.f == nil {
		return Decision{}
	}
	return a.f(v)
}

// oneShotWriter writes x[pid] = 1 and halts; done when all cells set.
func oneShotWriter() *testAlg {
	return &testAlg{
		name: "one-shot",
		cycle: func(pid int, ctx *Ctx) Status {
			ctx.Write(pid, 1)
			return Halt
		},
		done: func(mem MemoryView, n, p int) bool {
			for i := 0; i < n; i++ {
				if mem.Load(i) == 0 {
					return false
				}
			}
			return true
		},
	}
}

func mustMachine(t *testing.T, cfg Config, alg Algorithm, adv Adversary) *Machine {
	t.Helper()
	m, err := New(cfg, alg, adv)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestNewRejectsInvalidSizes(t *testing.T) {
	tests := []struct {
		give string
		n, p int
	}{
		{give: "zero N", n: 0, p: 1},
		{give: "zero P", n: 1, p: 0},
		{give: "negative N", n: -3, p: 1},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			if _, err := New(Config{N: tt.n, P: tt.p}, oneShotWriter(), &funcAdversary{}); err == nil {
				t.Fatal("want error, got nil")
			}
		})
	}
}

func TestFailureFreeRunCompletesWithExactWork(t *testing.T) {
	const n = 16
	m := mustMachine(t, Config{N: n, P: n}, oneShotWriter(), &funcAdversary{name: "none"})
	got, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Completed != n {
		t.Errorf("Completed = %d, want %d", got.Completed, n)
	}
	if got.Ticks != 1 {
		t.Errorf("Ticks = %d, want 1", got.Ticks)
	}
	if got.FSize() != 0 {
		t.Errorf("|F| = %d, want 0", got.FSize())
	}
	for i := 0; i < n; i++ {
		if m.Memory().Load(i) != 1 {
			t.Errorf("cell %d = %d, want 1", i, m.Memory().Load(i))
		}
	}
}

func TestFailBeforeReadsChargesNothing(t *testing.T) {
	const n = 4
	// Fail pid 1 before reads on tick 0; restart it on tick 1.
	adv := &funcAdversary{name: "t", f: func(v *View) Decision {
		switch v.Tick {
		case 0:
			return Decision{Failures: []Failure{{PID: 1, Point: FailBeforeReads}}}
		case 1:
			return Decision{Restarts: []int{1}}
		default:
			return Decision{}
		}
	}}
	m := mustMachine(t, Config{N: n, P: n}, oneShotWriter(), adv)
	got, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// n-1 cycles at tick 0, pid 1's cycle after its restart.
	if got.Completed != n {
		t.Errorf("Completed = %d, want %d", got.Completed, n)
	}
	if got.Incomplete != 0 {
		t.Errorf("Incomplete = %d, want 0 (cycle never began)", got.Incomplete)
	}
	if got.Failures != 1 || got.Restarts != 1 {
		t.Errorf("Failures, Restarts = %d, %d; want 1, 1", got.Failures, got.Restarts)
	}
}

func TestFailAfterReadsSuppressesWritesAndCountsIncomplete(t *testing.T) {
	const n = 2
	adv := &funcAdversary{name: "t", f: func(v *View) Decision {
		if v.Tick == 0 {
			return Decision{Failures: []Failure{{PID: 1, Point: FailAfterReads}}}
		}
		return Decision{Restarts: []int{1}}
	}}
	m := mustMachine(t, Config{N: n, P: n}, oneShotWriter(), adv)
	got, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Incomplete != 1 {
		t.Errorf("Incomplete = %d, want 1", got.Incomplete)
	}
	if got.SPrime() != got.S()+1 {
		t.Errorf("S' = %d, want S+1 = %d", got.SPrime(), got.S()+1)
	}
}

func TestFailAfterWrite1CommitsOnlyFirstWrite(t *testing.T) {
	// Each processor writes two cells; pid 0 is failed after its first
	// write on tick 0.
	alg := &testAlg{
		name:    "two-writes",
		memSize: func(n, p int) int { return 2 * n },
		cycle: func(pid int, ctx *Ctx) Status {
			if pid == 2 {
				return Continue // spinner keeping the machine alive
			}
			ctx.Write(2*pid, 1)
			ctx.Write(2*pid+1, 1)
			return Halt
		},
	}
	adv := &funcAdversary{name: "t", f: func(v *View) Decision {
		if v.Tick == 0 {
			return Decision{Failures: []Failure{{PID: 0, Point: FailAfterWrite1}}}
		}
		return Decision{}
	}}
	m := mustMachine(t, Config{N: 2, P: 3, MaxTicks: 4}, alg, adv)
	if _, err := m.Run(); !errors.Is(err, ErrTickLimit) {
		// pid 0 stays dead, so the run cannot finish; we only care
		// about the memory state.
		t.Fatalf("Run err = %v, want ErrTickLimit", err)
	}
	mem := m.Memory()
	if mem.Load(0) != 1 {
		t.Errorf("first write of failed cycle missing: cell 0 = %d, want 1", mem.Load(0))
	}
	if mem.Load(1) != 0 {
		t.Errorf("second write of failed cycle landed: cell 1 = %d, want 0", mem.Load(1))
	}
	if mem.Load(2) != 1 || mem.Load(3) != 1 {
		t.Errorf("surviving processor's writes missing: cells = %d,%d", mem.Load(2), mem.Load(3))
	}
}

func TestHaltedProcessorsCannotFailOrRestart(t *testing.T) {
	adv := &funcAdversary{name: "t", f: func(v *View) Decision {
		// Try to fail and restart pid 0 after it halts (tick 0).
		if v.Tick == 0 {
			return Decision{}
		}
		return Decision{
			Failures: []Failure{{PID: 0, Point: FailBeforeReads}},
			Restarts: []int{0},
		}
	}}
	// pid 0 halts immediately; pid 1 does the work.
	alg := &testAlg{
		name: "t",
		cycle: func(pid int, ctx *Ctx) Status {
			if pid == 0 {
				return Halt
			}
			k := int(ctx.Stable())
			ctx.Write(k, 1)
			ctx.SetStable(Word(k + 1))
			if k+1 >= ctx.N() {
				return Halt
			}
			return Continue
		},
		done: oneShotWriter().done,
	}
	m := mustMachine(t, Config{N: 4, P: 2}, alg, adv)
	got, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// pid 0 halts on tick 0; afterwards it must be immune to the
	// adversary.
	if m.State(0) != Halted {
		t.Errorf("state(0) = %v, want halted", m.State(0))
	}
	if got.Restarts != 0 {
		t.Errorf("Restarts = %d, want 0 (halted processors cannot restart)", got.Restarts)
	}
}

func TestStableCounterSurvivesFailure(t *testing.T) {
	const n = 8
	// A sequential writer whose position is checkpointed in the stable
	// counter; the adversary kills it every third tick and restarts it
	// immediately. Progress must resume from the checkpoint.
	alg := &testAlg{
		name: "checkpointed",
		cycle: func(pid int, ctx *Ctx) Status {
			if pid != 0 {
				return Continue // spinner: the liveness rule needs a survivor
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
	adv := &funcAdversary{name: "t", f: func(v *View) Decision {
		var dec Decision
		if v.Tick%3 == 2 && v.States.At(0) == Alive {
			dec.Failures = []Failure{{PID: 0, Point: FailAfterReads}}
		}
		for pid := 0; pid < v.States.Len(); pid++ {
			if v.States.At(pid) == Dead {
				dec.Restarts = append(dec.Restarts, pid)
			}
		}
		return dec
	}}
	m := mustMachine(t, Config{N: n, P: 2}, alg, adv)
	got, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// With the checkpoint, pid 0 needs exactly n productive cycles plus
	// the ticks lost to failures; without it, every failure would restart
	// the scan from cell 0.
	if int64(got.Ticks) > int64(n)+3*got.Failures {
		t.Errorf("Ticks = %d with %d failures; checkpoint must prevent re-work", got.Ticks, got.Failures)
	}
	if got.Failures == 0 {
		t.Error("adversary never fired; test is vacuous")
	}
}

func TestStableUpdateDiscardedOnMidCycleFailure(t *testing.T) {
	// The stable counter commits with the cycle: a processor failed
	// after reads must not see its SetStable land.
	adv := &funcAdversary{name: "t", f: func(v *View) Decision {
		if v.Tick == 0 {
			return Decision{Failures: []Failure{{PID: 0, Point: FailAfterReads}}}
		}
		return Decision{Restarts: []int{0}}
	}}
	var sawStable []Word
	alg := &testAlg{
		name: "t",
		cycle: func(pid int, ctx *Ctx) Status {
			if pid != 0 {
				return Continue // spinner: the liveness rule needs a survivor
			}
			sawStable = append(sawStable, ctx.Stable())
			ctx.SetStable(ctx.Stable() + 1)
			ctx.Write(0, ctx.Stable()+1)
			return Continue
		},
		done: func(mem MemoryView, n, p int) bool { return mem.Load(0) != 0 },
	}
	m := mustMachine(t, Config{N: 1, P: 2}, alg, adv)
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Tick 0's increment was killed; the next executed cycle must still
	// see stable == 0.
	if len(sawStable) < 2 || sawStable[1] != 0 {
		t.Errorf("stable values seen = %v; killed cycle's SetStable must not commit", sawStable)
	}
}

func TestLivenessVetoSparesOneProcessor(t *testing.T) {
	const n = 4
	killAll := &funcAdversary{name: "kill-all", f: func(v *View) Decision {
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
	m := mustMachine(t, Config{N: n, P: n}, oneShotWriter(), killAll)
	got, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Vetoes == 0 {
		t.Error("Vetoes = 0, want > 0 (machine must enforce liveness)")
	}
	if got.Completed < n {
		t.Errorf("Completed = %d, want >= %d", got.Completed, n)
	}
}

func TestCommonPolicyAcceptsAgreeingWriters(t *testing.T) {
	alg := &testAlg{
		name: "agree",
		cycle: func(pid int, ctx *Ctx) Status {
			ctx.Write(0, 7)
			return Halt
		},
		done: func(mem MemoryView, n, p int) bool { return mem.Load(0) == 7 },
	}
	m := mustMachine(t, Config{N: 1, P: 8}, alg, &funcAdversary{})
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestCommonPolicyRejectsDisagreeingWriters(t *testing.T) {
	alg := &testAlg{
		name: "disagree",
		cycle: func(pid int, ctx *Ctx) Status {
			ctx.Write(0, Word(pid))
			return Halt
		},
	}
	m := mustMachine(t, Config{N: 1, P: 2}, alg, &funcAdversary{})
	if _, err := m.Run(); !errors.Is(err, ErrCommonViolation) {
		t.Fatalf("Run err = %v, want ErrCommonViolation", err)
	}
}

func TestCycleLimitEnforced(t *testing.T) {
	alg := &testAlg{
		name:    "greedy-reader",
		memSize: func(n, p int) int { return 8 },
		cycle: func(pid int, ctx *Ctx) Status {
			for i := 0; i < MaxReadsPerCycle+1; i++ {
				ctx.Read(i)
			}
			return Halt
		},
	}
	m := mustMachine(t, Config{N: 4, P: 1}, alg, &funcAdversary{})
	if _, err := m.Run(); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("Run err = %v, want ErrCycleLimit", err)
	}
}

func TestSnapshotRequiresConfig(t *testing.T) {
	alg := &testAlg{
		name: "snapshotter",
		cycle: func(pid int, ctx *Ctx) Status {
			ctx.Snapshot(nil)
			ctx.Write(0, 1)
			return Halt
		},
		done: func(mem MemoryView, n, p int) bool { return mem.Load(0) != 0 },
	}
	t.Run("disallowed", func(t *testing.T) {
		m := mustMachine(t, Config{N: 1, P: 1}, alg, &funcAdversary{})
		if _, err := m.Run(); !errors.Is(err, ErrSnapshotDisallowed) {
			t.Fatalf("Run err = %v, want ErrSnapshotDisallowed", err)
		}
	})
	t.Run("allowed", func(t *testing.T) {
		m := mustMachine(t, Config{N: 1, P: 1, AllowSnapshot: true}, alg, &funcAdversary{})
		got, err := m.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if got.Snapshots != 1 {
			t.Errorf("Snapshots = %d, want 1", got.Snapshots)
		}
	})
}

func TestTickLimitReturnsError(t *testing.T) {
	spin := &testAlg{
		name: "spin",
		cycle: func(pid int, ctx *Ctx) Status {
			return Continue
		},
	}
	m := mustMachine(t, Config{N: 1, P: 1, MaxTicks: 10}, spin, &funcAdversary{})
	if _, err := m.Run(); !errors.Is(err, ErrTickLimit) {
		t.Fatalf("Run err = %v, want ErrTickLimit", err)
	}
}

func TestAllHaltedBeforeCompletionIsAnError(t *testing.T) {
	quitter := &testAlg{
		name: "quitter",
		cycle: func(pid int, ctx *Ctx) Status {
			return Halt
		},
	}
	m := mustMachine(t, Config{N: 1, P: 2}, quitter, &funcAdversary{})
	if _, err := m.Run(); !errors.Is(err, ErrAllHalted) {
		t.Fatalf("Run err = %v, want ErrAllHalted", err)
	}
}

func TestDeadMachineForceRestartsWhenAdversaryStalls(t *testing.T) {
	// Kill everyone, then never restart: the machine must veto by
	// restarting someone so that a legal computation continues.
	adv := &funcAdversary{name: "stall", f: func(v *View) Decision {
		if v.Tick == 0 {
			dec := Decision{}
			for pid := 0; pid < v.States.Len(); pid++ {
				dec.Failures = append(dec.Failures, Failure{PID: pid, Point: FailBeforeReads})
			}
			return dec
		}
		return Decision{}
	}}
	alg := &testAlg{
		name: "stride",
		cycle: func(pid int, ctx *Ctx) Status {
			k := int(ctx.Stable())
			if pid != 0 {
				return Halt
			}
			if k >= ctx.N() {
				return Halt
			}
			ctx.Write(k, 1)
			ctx.SetStable(Word(k + 1))
			return Continue
		},
		done: oneShotWriter().done,
	}
	m := mustMachine(t, Config{N: 4, P: 2}, alg, adv)
	got, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Vetoes == 0 {
		t.Error("Vetoes = 0, want > 0 (dead machine must be revived)")
	}
}

func TestReadsObserveTickStartMemory(t *testing.T) {
	// Two processors swap two cells through reads and writes in the same
	// tick; synchronous PRAM semantics require both to read the pre-tick
	// values.
	alg := &testAlg{
		name:    "swap",
		memSize: func(n, p int) int { return 3 },
		setup: func(mem *Memory, n, p int) {
			mem.Store(0, 5)
			mem.Store(1, 9)
		},
		cycle: func(pid int, ctx *Ctx) Status {
			v := ctx.Read(1 - pid)
			ctx.Write(pid, v)
			return Halt
		},
	}
	m := mustMachine(t, Config{N: 2, P: 2}, alg, &funcAdversary{})
	if _, err := m.Run(); !errors.Is(err, ErrAllHalted) {
		t.Fatalf("Run err = %v, want ErrAllHalted (no done predicate)", err)
	}
	if got0, got1 := m.Memory().Load(0), m.Memory().Load(1); got0 != 9 || got1 != 5 {
		t.Errorf("cells = %d,%d; want 9,5 (synchronous swap)", got0, got1)
	}
}

func TestMetricsIdentities(t *testing.T) {
	m := Metrics{N: 10, Completed: 100, Incomplete: 7, Failures: 5, Restarts: 4}
	if got := m.SPrime(); got != 107 {
		t.Errorf("SPrime = %d, want 107", got)
	}
	if got := m.FSize(); got != 9 {
		t.Errorf("FSize = %d, want 9", got)
	}
	if got := m.Overhead(); got != 100.0/19.0 {
		t.Errorf("Overhead = %v, want %v", got, 100.0/19.0)
	}
}

func TestSinkReceivesPerTickProfile(t *testing.T) {
	const n = 8
	var stats []TickEvent
	adv := &funcAdversary{name: "t", f: func(v *View) Decision {
		if v.Tick == 0 {
			return Decision{Failures: []Failure{{PID: 0, Point: FailBeforeReads}}}
		}
		return Decision{Restarts: []int{0}}
	}}
	cfg := Config{N: n, P: n, Sink: TickFunc(func(ev TickEvent) { stats = append(stats, ev) })}
	m := mustMachine(t, cfg, oneShotWriter(), adv)
	got, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(stats) != got.Ticks {
		t.Fatalf("sink saw %d ticks, metrics say %d", len(stats), got.Ticks)
	}
	var completed, failures, restarts int64
	for i, ts := range stats {
		if ts.Tick != i {
			t.Errorf("stats[%d].Tick = %d", i, ts.Tick)
		}
		completed += int64(ts.Completed)
		failures += int64(ts.Failures)
		restarts += int64(ts.Restarts)
	}
	if completed != got.Completed || failures != got.Failures || restarts != got.Restarts {
		t.Errorf("sink totals (%d,%d,%d) != metrics (%d,%d,%d)",
			completed, failures, restarts, got.Completed, got.Failures, got.Restarts)
	}
	if stats[0].Alive != n {
		t.Errorf("stats[0].Alive = %d, want %d", stats[0].Alive, n)
	}
}

func TestDecisionEdgeCasesIgnored(t *testing.T) {
	// Out-of-range PIDs, restarts of alive processors, and failures of
	// dead processors must all be ignored without affecting metrics.
	adv := &funcAdversary{name: "bogus", f: func(v *View) Decision {
		return Decision{
			Failures: []Failure{
				{PID: -1, Point: FailBeforeReads},
				{PID: 999, Point: FailAfterReads},
			},
			Restarts: []int{-5, 999, 0 /* alive */},
		}
	}}
	alg := &testAlg{
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
	m := mustMachine(t, Config{N: 8, P: 2}, alg, adv)
	got, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.FSize() != 0 {
		t.Errorf("|F| = %d, want 0 (all events bogus)", got.FSize())
	}
}

func TestSnapshotCountsAsOneInstruction(t *testing.T) {
	// A snapshot plus up to two writes is a legal strong-model cycle even
	// though the snapshot reads the whole memory.
	alg := &testAlg{
		name:    "snap",
		memSize: func(n, p int) int { return 64 },
		cycle: func(pid int, ctx *Ctx) Status {
			ctx.Snapshot(nil)
			ctx.Write(0, 1)
			ctx.Write(1, 1)
			return Halt
		},
		done: func(mem MemoryView, n, p int) bool { return mem.Load(0) != 0 },
	}
	m := mustMachine(t, Config{N: 2, P: 1, AllowSnapshot: true}, alg, &funcAdversary{})
	got, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Snapshots != 1 {
		t.Errorf("Snapshots = %d, want 1", got.Snapshots)
	}
}

func TestProcStateStrings(t *testing.T) {
	tests := []struct {
		give ProcState
		want string
	}{
		{give: Alive, want: "alive"},
		{give: Dead, want: "dead"},
		{give: Halted, want: "halted"},
		{give: ProcState(0), want: "invalid"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestFailPointStrings(t *testing.T) {
	tests := []struct {
		give FailPoint
		want string
	}{
		{give: NoFailure, want: "none"},
		{give: FailBeforeReads, want: "before-reads"},
		{give: FailAfterReads, want: "after-reads"},
		{give: FailAfterWrite1, want: "after-write-1"},
		{give: FailPoint(99), want: "invalid"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestInvalidFailPointRejected(t *testing.T) {
	adv := &funcAdversary{name: "bad", f: func(v *View) Decision {
		return Decision{Failures: []Failure{{PID: 0, Point: FailPoint(42)}}}
	}}
	// Two processors so the liveness veto does not erase the bad entry.
	m := mustMachine(t, Config{N: 2, P: 2}, oneShotWriter(), adv)
	if _, err := m.Run(); err == nil {
		t.Fatal("want error for invalid fail point")
	}
}

func TestMemoryCopyIntoReusesBuffer(t *testing.T) {
	mem := NewMemory(8)
	mem.Store(3, 42)
	buf := make([]Word, 8)
	out := mem.CopyInto(buf)
	if &out[0] != &buf[0] {
		t.Error("CopyInto allocated despite sufficient capacity")
	}
	if out[3] != 42 {
		t.Errorf("out[3] = %d, want 42", out[3])
	}
	grown := mem.CopyInto(nil)
	if len(grown) != 8 || grown[3] != 42 {
		t.Errorf("CopyInto(nil) = %v", grown)
	}
}

func TestMemorySlice(t *testing.T) {
	mem := NewMemory(10)
	for i := 0; i < 10; i++ {
		mem.Store(i, Word(i))
	}
	s := mem.Slice(3, 4)
	if len(s) != 4 || s[0] != 3 || s[3] != 6 {
		t.Errorf("Slice(3,4) = %v", s)
	}
	if mem.Size() != 10 {
		t.Errorf("Size = %d, want 10", mem.Size())
	}
}

func TestPerProcessorTracking(t *testing.T) {
	const n, p = 12, 3
	// Strided writers: pid writes cells pid, pid+p, ... checkpointed.
	alg := &testAlg{
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
	tracker := NewProcTracker(p)
	m := mustMachine(t, Config{N: n, P: p, Sink: tracker}, alg, &funcAdversary{})
	got, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	work := tracker.Work()
	progress := tracker.Progress()
	var totalWork, totalProgress int64
	for pid := 0; pid < p; pid++ {
		totalWork += work[pid]
		totalProgress += progress[pid]
		if progress[pid] != int64(n/p) {
			t.Errorf("progress[%d] = %d, want %d", pid, progress[pid], n/p)
		}
	}
	if totalWork != got.Completed {
		t.Errorf("sum of tracked work = %d, Completed = %d", totalWork, got.Completed)
	}
	if totalProgress != int64(n) {
		t.Errorf("sum of tracked progress = %d, want %d", totalProgress, n)
	}
}

func TestProcTrackerReturnsCopies(t *testing.T) {
	tracker := NewProcTracker(4)
	m := mustMachine(t, Config{N: 4, P: 4, Sink: tracker}, oneShotWriter(), &funcAdversary{})
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	work := tracker.Work()
	work[0] = -99
	if got := tracker.Work()[0]; got == -99 {
		t.Error("Work returned internal slice, want a copy")
	}
	progress := tracker.Progress()
	progress[0] = -99
	if got := tracker.Progress()[0]; got == -99 {
		t.Error("Progress returned internal slice, want a copy")
	}
}

func TestMachineAccessors(t *testing.T) {
	m := mustMachine(t, Config{N: 2, P: 2}, oneShotWriter(), &funcAdversary{})
	if m.Tick() != 0 {
		t.Errorf("Tick = %d, want 0", m.Tick())
	}
	if got := m.Metrics(); got.N != 2 || got.P != 2 {
		t.Errorf("Metrics N,P = %d,%d", got.N, got.P)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Tick() == 0 {
		t.Error("Tick did not advance")
	}
}

func TestCtxAccessors(t *testing.T) {
	var sawPID, sawN, sawP, sawTick = -1, -1, -1, -1
	alg := &testAlg{
		name: "probe",
		cycle: func(pid int, ctx *Ctx) Status {
			sawPID, sawN, sawP, sawTick = ctx.PID(), ctx.N(), ctx.P(), ctx.Tick()
			ctx.Write(0, 1)
			return Halt
		},
		done: func(mem MemoryView, n, p int) bool { return mem.Load(0) != 0 },
	}
	m := mustMachine(t, Config{N: 3, P: 1}, alg, &funcAdversary{})
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sawPID != 0 || sawN != 3 || sawP != 1 || sawTick != 0 {
		t.Errorf("ctx accessors = pid %d, n %d, p %d, tick %d", sawPID, sawN, sawP, sawTick)
	}
}
