package failstop

import (
	"runtime"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/pram"
	"repro/internal/prog"
	"repro/internal/writeall"
)

// TestSteadyStateTicksAllocationFreeUnderChurn extends internal/pram's
// TestSteadyStateTicksAllocationFree to ticks with failures and
// restarts, which need the real adversaries: after warm-up, ticks under
// the thrasher (P−1 processors fail and restart every tick) and under
// the post-order adversary (its park index updated every tick) and under
// the random adversary (fresh failures and restarts every tick) allocate
// nothing at all. Decisions reuse per-adversary buffers and restarts
// recycle processors in place. The sim rows hold Theorem 4.1's robust
// executor to the same standard under both engines: its processors
// reset in place on restart and a leaf visit hands Program.Step funcs
// bound once per processor. The count is the total over the measured
// ticks, not a rounded per-tick average, because post-order fails
// processors on only ~7% of its ticks.
func TestSteadyStateTicksAllocationFreeUnderChurn(t *testing.T) {
	const n, p = 256, 64
	writeAll := func(adv pram.Adversary) func() (*pram.Machine, error) {
		return func() (*pram.Machine, error) { return pram.New(pram.Config{N: n, P: p}, writeall.NewX(), adv) }
	}
	input := make([]pram.Word, 64)
	for i := range input {
		input[i] = pram.Word((i*7919 + 13) % 256)
	}
	sim := func(engine core.Engine, adv pram.Adversary) func() (*pram.Machine, error) {
		return func() (*pram.Machine, error) {
			return core.NewMachineWithEngine(prog.OddEvenSort{N: len(input), Input: input}, 16, adv, pram.Config{}, engine)
		}
	}
	for _, tc := range []struct {
		name    string
		machine func() (*pram.Machine, error)
	}{
		{"thrashing", writeAll(&adversary.Thrashing{})},
		{"rotating", writeAll(&adversary.Thrashing{Rotate: true})},
		{"postorder", writeAll(writeall.NewPostOrder(writeall.NewX().Layout(n, p)))},
		{"random", writeAll(adversary.NewRandom(0.5, 0.2, 1))},
		{"sim/V+X/thrashing", sim(core.EngineVX, &adversary.Thrashing{})},
		{"sim/V+X/random", sim(core.EngineVX, adversary.NewRandom(0.05, 0.5, 1))},
		{"sim/V+X/rotating", sim(core.EngineVX, &adversary.Thrashing{Rotate: true})},
		{"sim/X/thrashing", sim(core.EngineX, &adversary.Thrashing{})},
		{"sim/X/rotating", sim(core.EngineX, &adversary.Thrashing{Rotate: true})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := tc.machine()
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer m.Close()
			step := func() {
				if done, err := m.Step(); done || err != nil {
					t.Fatalf("Step at tick %d: done=%v err=%v", m.Tick(), done, err)
				}
			}
			// Warm up lazy buffers and the runtime's per-call-site
			// type-assertion caches, which the first kill and restart fill.
			for i := 0; i < 64 || m.Metrics().Restarts == 0; i++ {
				step()
			}
			before := m.Metrics()
			if allocs := allocsOver(400, step); allocs != 0 {
				t.Errorf("400 ticks allocate %d objects, want 0", allocs)
			}
			if got := m.Metrics(); got.Failures == before.Failures || got.Restarts == before.Restarts {
				t.Errorf("no churn in the measured ticks (F %d→%d, R %d→%d); test is vacuous",
					before.Failures, got.Failures, before.Restarts, got.Restarts)
			}
		})
	}
}

// allocsOver returns the number of heap allocations runs calls of f make
// in total. It counts only the allocations whose stacks pass through
// runSteps, read from a memory profile sampling every allocation, so the
// runtime's own background work (the scavenger's timers, say) during the
// calls is not charged to f, as it would be by testing.AllocsPerRun's
// process-wide MemStats.Mallocs.
func allocsOver(runs int, f func()) int64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := allocsUnderRunSteps()
	runSteps(runs, f)
	return allocsUnderRunSteps() - before
}

// runSteps calls f runs times; allocsOver charges f with the allocations
// whose stacks contain this frame.
//
//go:noinline
func runSteps(runs int, f func()) {
	for i := 0; i < runs; i++ {
		f()
	}
}

// allocsUnderRunSteps returns the number of allocations the memory
// profile attributes to runSteps so far. The profile publishes an
// allocation two garbage collections after it happens, so it collects
// twice first. A stack the profile cut short cannot be attributed and
// is counted, so truncation cannot hide an allocation.
func allocsUnderRunSteps() int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	var total int64
	for i := range recs[:n] {
		if stack := recs[i].Stack(); len(stack) == len(recs[i].Stack0) || underRunSteps(stack) {
			total += recs[i].AllocObjects
		}
	}
	return total
}

// underRunSteps reports whether the call stack passes through runSteps.
func underRunSteps(stack []uintptr) bool {
	frames := runtime.CallersFrames(stack)
	for {
		frame, more := frames.Next()
		if frame.Function == "repro.runSteps" {
			return true
		}
		if !more {
			return false
		}
	}
}
