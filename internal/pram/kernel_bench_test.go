package pram

import (
	"fmt"
	"testing"
)

// spinMachine builds a machine whose processors run empty cycles forever:
// the pure per-tick overhead of the simulator, nothing else.
func spinMachine(tb testing.TB, p int, kern Kernel, workers int) *Machine {
	tb.Helper()
	spin := &testAlg{
		name:  "spin",
		cycle: func(pid int, ctx *Ctx) Status { return Continue },
	}
	m, err := New(Config{N: p, P: p, Kernel: kern, Workers: workers}, spin, &funcAdversary{name: "none"})
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
// warm-up, a tick allocates nothing under either kernel. Intents, write
// buffers, contexts, schedule masks and the parallel kernel's worker pool
// are all reused across ticks.
func TestSteadyStateTicksAllocationFree(t *testing.T) {
	kernels := []struct {
		name    string
		kern    Kernel
		workers int
	}{
		{"serial", SerialKernel, 0},
		{"parallel-2", ParallelKernel, 2},
	}
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			m := spinMachine(t, 64, k.kern, k.workers)
			defer m.Close()
			for i := 0; i < 16; i++ { // warm up pools and lazy buffers
				stepOnce(t, m)
			}
			avg := testing.AllocsPerRun(200, func() { stepOnce(t, m) })
			if avg != 0 {
				t.Errorf("steady-state tick allocates %.2f objects/op, want 0", avg)
			}
		})
	}
}

// BenchmarkSteadyStateTick measures per-tick cost and (via -benchmem)
// proves the zero-allocation steady state of both kernels.
func BenchmarkSteadyStateTick(b *testing.B) {
	for _, k := range []struct {
		name    string
		kern    Kernel
		workers int
	}{
		{"serial", SerialKernel, 0},
		{"parallel-gomaxprocs", ParallelKernel, 0},
	} {
		for _, p := range []int{64, 1024} {
			b.Run(fmt.Sprintf("%s/p=%d", k.name, p), func(b *testing.B) {
				m := spinMachine(b, p, k.kern, k.workers)
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

// BenchmarkKernelCrossover pins the serial/parallel crossover that the
// adaptive kernel navigates: steady-state tick cost for each engine at
// P from well below the shard size to well above it. The regression this
// guards against: at small-to-medium P the parallel kernel's wake/park
// handshake used to cost more than the whole serial walk, yet was still
// selected (notably parallel-gomaxprocs at p=1024 losing to serial). The
// auto rows must track whichever engine wins at each P, modulo its
// periodic probe overhead.
func BenchmarkKernelCrossover(b *testing.B) {
	for _, k := range []struct {
		name    string
		kern    Kernel
		workers int
	}{
		{"serial", SerialKernel, 0},
		{"parallel-gomaxprocs", ParallelKernel, 0},
		{"auto-gomaxprocs", AutoKernel, 0},
	} {
		for _, p := range []int{64, 256, 1024, 4096} {
			b.Run(fmt.Sprintf("%s/p=%d", k.name, p), func(b *testing.B) {
				m := spinMachine(b, p, k.kern, k.workers)
				defer m.Close()
				for i := 0; i < 16; i++ {
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
}

// BenchmarkKernelWriteAll compares end-to-end Write-All runs under both
// kernels: algorithm X, failure-free, P = N/4. On a multi-core host the
// parallel kernel's attempt phase shards across workers; on a single-core
// host the two should be within noise of each other (the determinism
// contract keeps the work identical either way).
func BenchmarkKernelWriteAll(b *testing.B) {
	const n = 4096
	p := n / 4
	for _, k := range []struct {
		name string
		kern Kernel
	}{
		{"serial", SerialKernel},
		{"parallel-gomaxprocs", ParallelKernel},
	} {
		b.Run(k.name, func(b *testing.B) {
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
				m, err := New(Config{N: n, P: p, Kernel: k.kern}, alg, &funcAdversary{name: "none"})
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
}
