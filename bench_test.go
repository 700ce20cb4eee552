package failstop

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/adversary"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/pram"
	"repro/internal/prog"
	"repro/internal/writeall"
)

// The benchmarks below regenerate the paper's evaluation: one benchmark
// per experiment table (indexed in DESIGN.md), each running that
// experiment's representative configuration once per iteration and
// reporting the completed work S (the paper's primary measure) as
// work-S/op, with the run's length as ticks/op. `go run ./cmd/experiments`
// prints the corresponding full tables.

// benchWriteAll runs one Write-All configuration per iteration on a
// pooled Runner. The algorithm is instantiated once and reused — Setup
// reinitializes its Done state every run, and reusing the instance lets
// the runner recycle Resettable processor state (for ACC this means
// iterations see successive random streams rather than a replay, which is
// if anything more representative).
func benchWriteAll(b *testing.B, n, p int, mkAlg func() pram.Algorithm, mkAdv func() pram.Adversary, cfg Config) {
	b.Helper()
	var runner pram.Runner
	defer runner.Close()
	alg := mkAlg()
	var last pram.Metrics
	for i := 0; i < b.N; i++ {
		cfg.N, cfg.P = n, p
		got, err := runner.Run(cfg, alg, mkAdv())
		if err != nil {
			b.Fatal(err)
		}
		last = got
	}
	b.ReportMetric(float64(last.S()), "work-S/op")
	b.ReportMetric(float64(last.Ticks), "ticks/op")
}

// benchSim runs one robust execution per iteration.
func benchSim(b *testing.B, program core.Program, p int, mkAdv func() pram.Adversary, engine core.Engine) {
	b.Helper()
	var lastS int64
	for i := 0; i < b.N; i++ {
		m, err := core.NewMachineWithEngine(program, p, mkAdv(), pram.Config{}, engine)
		if err != nil {
			b.Fatal(err)
		}
		got, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		lastS = got.S()
	}
	b.ReportMetric(float64(lastS), "work-S/op")
}

// BenchmarkE1Thrashing: Example 2.2, S vs S' under the thrashing
// adversary.
func BenchmarkE1Thrashing(b *testing.B) {
	benchWriteAll(b, 128, 128,
		func() pram.Algorithm { return writeall.NewTrivial() },
		func() pram.Adversary { return &adversary.Thrashing{} },
		Config{})
}

// BenchmarkE2LowerBound: Theorem 3.1, the halving adversary against X.
func BenchmarkE2LowerBound(b *testing.B) {
	benchWriteAll(b, 256, 256,
		func() pram.Algorithm { return writeall.NewX() },
		func() pram.Adversary { return adversary.NewHalving() },
		Config{})
}

// BenchmarkE3Oblivious: Theorem 3.2, the snapshot algorithm under
// halving.
func BenchmarkE3Oblivious(b *testing.B) {
	benchWriteAll(b, 256, 256,
		func() pram.Algorithm { return writeall.NewOblivious() },
		func() pram.Adversary { return adversary.NewHalving() },
		Config{AllowSnapshot: true})
}

// BenchmarkE4VFailStop: Lemma 4.2, V under fail-stop failures.
func BenchmarkE4VFailStop(b *testing.B) {
	benchWriteAll(b, 256, 256,
		func() pram.Algorithm { return writeall.NewV() },
		func() pram.Adversary {
			a := adversary.NewRandom(0.02, 0, 5)
			a.MaxEvents = 128
			return a
		},
		Config{})
}

// BenchmarkE5VRestart: Theorem 4.3, V under failures and restarts.
func BenchmarkE5VRestart(b *testing.B) {
	benchWriteAll(b, 256, 16,
		func() pram.Algorithm { return writeall.NewV() },
		func() pram.Adversary {
			a := adversary.NewRandom(0.4, 0.9, 17)
			a.MaxEvents = 512
			return a
		},
		Config{})
}

// BenchmarkE6XWorstCase: Theorem 4.8, X under the post-order adversary
// at P = N. The n=4096 row is where the adversary parks ~96% of the
// processors, so it measures ticks that cost O(live), not O(P).
func BenchmarkE6XWorstCase(b *testing.B) {
	for _, n := range []int{128, 4096} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			benchWriteAll(b, n, n,
				func() pram.Algorithm { return writeall.NewX() },
				func() pram.Adversary { return writeall.NewPostOrder(writeall.NewX().Layout(n, n)) },
				Config{})
		})
	}
}

// BenchmarkE7XProcessorSweep: Theorem 4.7, X at P = N/4 under post-order.
func BenchmarkE7XProcessorSweep(b *testing.B) {
	benchWriteAll(b, 256, 64,
		func() pram.Algorithm { return writeall.NewX() },
		func() pram.Adversary { return writeall.NewPostOrder(writeall.NewX().Layout(256, 64)) },
		Config{})
}

// BenchmarkE8Combined: Theorem 4.9, the combined V+X algorithm under the
// rotating thrasher that starves V alone. Every tick fails and restarts
// P−1 processors, so the N=1024, P=256 row measures restart churn.
func BenchmarkE8Combined(b *testing.B) {
	for _, np := range [][2]int{{128, 128}, {1024, 256}} {
		b.Run(fmt.Sprintf("n=%d/p=%d", np[0], np[1]), func(b *testing.B) {
			benchWriteAll(b, np[0], np[1],
				func() pram.Algorithm { return writeall.NewCombined() },
				func() pram.Adversary { return &adversary.Thrashing{Rotate: true} },
				Config{})
		})
	}
}

// BenchmarkE9Simulation: Theorem 4.1 / Cor 4.10, robust prefix sums.
func BenchmarkE9Simulation(b *testing.B) {
	benchSim(b, prog.PrefixSum{N: 128}, 128,
		func() pram.Adversary {
			a := adversary.NewRandom(0.05, 0.5, 31)
			a.MaxEvents = 128
			return a
		},
		core.EngineVX)
}

// BenchmarkE10OverheadRatio: Cor 4.11, heavy failure pattern.
func BenchmarkE10OverheadRatio(b *testing.B) {
	benchSim(b, prog.ReduceSum{N: 128}, 128,
		func() pram.Adversary {
			a := adversary.NewRandom(0.45, 0.9, 37)
			a.MaxEvents = 4096
			return a
		},
		core.EngineVX)
}

// BenchmarkE11Optimality: Cor 4.12, the work-optimal range, both engines.
func BenchmarkE11Optimality(b *testing.B) {
	for _, engine := range []core.Engine{core.EngineVX, core.EngineX} {
		b.Run(engine.String(), func(b *testing.B) {
			benchSim(b, prog.PrefixSum{N: 512}, 8,
				func() pram.Adversary { return adversary.None{} },
				engine)
		})
	}
}

// BenchmarkE12Stalking: Section 5, ACC under the stalker. The fail-stop
// stalker never restarts anyone. The restart row is E12's P=4 row: ACC
// against the restartable stalker, cycling through E12's seeds (each run
// finishes, the longest in 2,503 ticks), where every restart seeds a
// fresh incarnation's random stream.
func BenchmarkE12Stalking(b *testing.B) {
	b.Run("fail-stop", func(b *testing.B) {
		var seed int64
		benchWriteAll(b, 64, 64,
			func() pram.Algorithm { seed++; return writeall.NewACC(seed) },
			func() pram.Adversary { return writeall.NewStalking(writeall.NewX().Layout(64, 64), false) },
			Config{})
	})
	b.Run("restart", func(b *testing.B) {
		const n, p = 64, 4
		var runner pram.Runner
		defer runner.Close()
		var s int64
		for i := 0; i < b.N; i++ {
			acc := writeall.NewACC(101 + int64(i%5))
			got, err := runner.Run(Config{N: n, P: p}, acc, writeall.NewStalking(acc.Layout(n, p), true))
			if err != nil {
				b.Fatal(err)
			}
			s += got.S()
		}
		b.ReportMetric(float64(s)/float64(b.N), "work-S/op")
	})
}

// BenchmarkE13XFailStop: Section 5 open problem, X without restarts.
func BenchmarkE13XFailStop(b *testing.B) {
	benchWriteAll(b, 256, 256,
		func() pram.Algorithm { return writeall.NewX() },
		func() pram.Adversary {
			a := adversary.NewHalving()
			a.NoRestarts = true
			return a
		},
		Config{})
}

// BenchmarkE14XAblation: Remark 5, the X variants.
func BenchmarkE14XAblation(b *testing.B) {
	variants := map[string]func() pram.Algorithm{
		"X":         func() pram.Algorithm { return writeall.NewX() },
		"X+spacing": func() pram.Algorithm { return writeall.NewXWithOptions(writeall.XOptions{EvenSpacing: true}) },
		"X+counts":  func() pram.Algorithm { return writeall.NewXWithOptions(writeall.XOptions{CountProgress: true}) },
	}
	for name, mk := range variants {
		b.Run(name, func(b *testing.B) {
			benchWriteAll(b, 128, 32, mk,
				func() pram.Adversary { return adversary.NewRandom(0.2, 0.6, 29) },
				Config{})
		})
	}
}

// BenchmarkE15WvsV: the open question, W under a no-restart attack.
func BenchmarkE15WvsV(b *testing.B) {
	benchWriteAll(b, 256, 256,
		func() pram.Algorithm { return writeall.NewW() },
		func() pram.Adversary {
			a := adversary.NewHalving()
			a.NoRestarts = true
			return a
		},
		Config{})
}

// BenchmarkMachineTick measures raw simulator throughput: one tick of P
// one-cycle processors, failure-free.
func BenchmarkMachineTick(b *testing.B) {
	for _, p := range []int{16, 256, 4096} {
		b.Run(strconv.Itoa(p), func(b *testing.B) {
			benchWriteAll(b, p, p,
				func() pram.Algorithm { return writeall.NewTrivial() },
				func() pram.Adversary { return adversary.None{} },
				Config{})
		})
	}
}

// BenchmarkWriteAllAlgorithms compares every algorithm failure-free at one
// size (the paper's Table-less baseline comparison).
func BenchmarkWriteAllAlgorithms(b *testing.B) {
	algs := map[string]func() pram.Algorithm{
		"X":          func() pram.Algorithm { return writeall.NewX() },
		"V":          func() pram.Algorithm { return writeall.NewV() },
		"V+X":        func() pram.Algorithm { return writeall.NewCombined() },
		"W":          func() pram.Algorithm { return writeall.NewW() },
		"trivial":    func() pram.Algorithm { return writeall.NewTrivial() },
		"sequential": func() pram.Algorithm { return writeall.NewSequential() },
	}
	for name, mk := range algs {
		b.Run(name, func(b *testing.B) {
			benchWriteAll(b, 512, 64, mk,
				func() pram.Adversary { return adversary.None{} },
				Config{})
		})
	}
}

// BenchmarkExperimentTables runs each full (quick-scale) experiment table
// once per iteration - the exact generator behind cmd/experiments.
func BenchmarkExperimentTables(b *testing.B) {
	for _, e := range bench.All() {
		exp := e
		b.Run(exp.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = exp.Run(context.Background(), bench.Sweep{Scale: bench.Quick})
			}
		})
	}
}
