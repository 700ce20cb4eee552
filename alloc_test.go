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
// in total, measured the way testing.AllocsPerRun measures.
func allocsOver(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
