package pram

import (
	"fmt"
	"testing"
)

// spinMachine builds a machine whose processors run empty cycles forever:
// the pure per-tick overhead of the simulator, nothing else.
func spinMachine(tb testing.TB, p int) *Machine {
	tb.Helper()
	spin := &testAlg{
		name:  "spin",
		cycle: func(pid int, ctx *Ctx) Status { return Continue },
	}
	m, err := New(Config{N: p, P: p}, spin, &funcAdversary{name: "none"})
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	return m
}

func stepOnce(tb testing.TB, m *Machine) {
	done, err := m.Step()
	if err != nil || done {
		tb.Fatalf("Step: done=%v err=%v", done, err)
	}
}

// TestSteadyStateTicksAllocationFree is the scratch-buffer contract: after
// warm-up, a tick allocates nothing. Intents, write buffers, contexts and
// schedule masks are all reused across ticks.
func TestSteadyStateTicksAllocationFree(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		m := spinMachine(t, 64)
		defer m.Close()
		for i := 0; i < 16; i++ { // warm up lazy buffers
			stepOnce(t, m)
		}
		avg := testing.AllocsPerRun(200, func() { stepOnce(t, m) })
		if avg != 0 {
			t.Errorf("steady-state tick allocates %.2f objects/op, want 0", avg)
		}
	})
}

// BenchmarkSteadyStateTick measures per-tick cost and (via -benchmem)
// proves the zero-allocation steady state.
func BenchmarkSteadyStateTick(b *testing.B) {
	for _, p := range []int{64, 1024} {
		b.Run(fmt.Sprintf("serial/p=%d", p), func(b *testing.B) {
			m := spinMachine(b, p)
			defer m.Close()
			for i := 0; i < 4; i++ {
				stepOnce(b, m)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stepOnce(b, m)
			}
		})
	}
}

// bigNMachine builds a Write-All-scale hinted machine (spinFill keeps
// the run in steady state forever) for the N >= 1e7 tick benchmarks.
// MaxTicks is raised far beyond b.N: the default 1<<26 budget is smaller
// than the iteration counts these benchmarks reach.
func bigNMachine(tb testing.TB, n, p int, packed bool) *Machine {
	tb.Helper()
	m, err := New(Config{N: n, P: p, Packed: packed, MaxTicks: 1 << 60}, spinFill{}, quietAdv{})
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	return m
}

// BenchmarkSteadyStateTickBigN measures the per-tick bookkeeping at
// Write-All production scale: per-tick cost at N = 10⁷ with P = 1024,
// per-tick stepping on unpacked memory (serial-step) versus the
// bit-packed layout driven through TickBatch quiet windows
// (packed-batch). The packed-batch row amortizes the bookkeeping over
// completion-distance-sized windows (~N/(2P) ticks), so its ns/op should
// sit orders of magnitude below serial-step's. spinFill writes nothing,
// so no row pays for filling cells: BenchmarkTrivialFillBigN measures
// that. The n=1e8 row runs packed only — unpacked at that size would
// allocate 800 MB for cells the packed layout keeps in 12.5 MB of bit
// words. These rows are tracked by make bench-compare and bench-gate;
// no gate-accepted report of them is committed.
func BenchmarkSteadyStateTickBigN(b *testing.B) {
	const p = 1024
	b.Run("serial-step/n=1e7/p=1024", func(b *testing.B) {
		m := bigNMachine(b, 1e7, p, false)
		defer m.Close()
		for i := 0; i < 4; i++ {
			stepOnce(b, m)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stepOnce(b, m)
		}
	})
	for _, n := range []int{1e7, 1e8} {
		name := fmt.Sprintf("packed-batch/n=1e%d/p=1024", len(fmt.Sprint(n))-1)
		b.Run(name, func(b *testing.B) {
			m := bigNMachine(b, n, p, true)
			defer m.Close()
			if _, _, err := m.TickBatch(256); err != nil { // warm up scratch state
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for ticks := 0; ticks < b.N; {
				k := b.N - ticks
				if k > 4096 {
					k = 4096
				}
				ran, done, err := m.TickBatch(k)
				if err != nil || done {
					b.Fatalf("TickBatch: ran=%d done=%v err=%v", ran, done, err)
				}
				ticks += ran
			}
		})
	}
}

// BenchmarkKernelWriteAll measures end-to-end Write-All runs: a strided
// writer, failure-free, P = N/4, each run on a fresh machine.
func BenchmarkKernelWriteAll(b *testing.B) {
	const n = 4096
	p := n / 4
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		var lastS int64
		for i := 0; i < b.N; i++ {
			alg := &testAlg{
				name: "stride",
				cycle: func(pid int, ctx *Ctx) Status {
					j := int(ctx.Stable())
					addr := pid + j*p
					if addr >= n {
						return Halt
					}
					ctx.Write(addr, 1)
					ctx.SetStable(Word(j + 1))
					return Continue
				},
				done: func(mem MemoryView, _, _ int) bool { return mem.Load(n-1) != 0 },
			}
			m, err := New(Config{N: n, P: p}, alg, &funcAdversary{name: "none"})
			if err != nil {
				b.Fatal(err)
			}
			got, err := m.Run()
			if err != nil {
				b.Fatal(err)
			}
			m.Close()
			lastS = got.S()
		}
		b.ReportMetric(float64(lastS), "work-S/op")
	})
}
