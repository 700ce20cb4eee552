package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/pram"
)

// TestSmoke runs every workload at a tiny size through the same code as a
// real run, untraced and traced: every output check must pass, every
// end-to-end metric must be positive, and the traced rounds must
// reproduce the untraced reference round exactly (quiet windows
// included).
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				e := &env{seed: 7, dir: t.TempDir(), small: true}
				var tr *tracer
				if traced {
					tr = newTracer()
					e.reg = enableObs()
				}
				m, err := measure(context.Background(), w, e, 0, tr)
				if err != nil {
					t.Fatal(err)
				}
				if !m.res.Correct || m.res.Attempted < 1 {
					t.Fatalf("correct=%t attempted=%d failed=%d\n%v", m.res.Correct, m.res.Attempted, m.res.Failed, m.notes)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(m.res.Metrics) != len(defs) {
					t.Fatalf("%d metrics, want %d", len(m.res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := m.res.Metrics[d.Name]
					if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
						t.Errorf("metric %s = %+v", d.Name, v)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want positive", d.Name, v.Value)
					}
				}
			})
		}
	}
}

// TestTailRule pins the tail rule and the quantile it is read with: at n
// samples the tail percentile leaves exactly ten beyond its nearest rank,
// and the Harrell-Davis estimate matches values integrated numerically
// (and, for the median of five, by hand from Beta(3,3)'s CDF).
func TestTailRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	if p := tailPercentile(100); p != 90 {
		t.Fatalf("tailPercentile(100) = %v, want 90", p)
	}
	for _, c := range []struct {
		xs     []float64
		q      float64
		value  float64
		beyond int
	}{
		{xs, 0.5, 50.5, 50},
		{xs, 0.9, 90.5, 10},
		{xs, 0.95, 95.49998, 5},
		{xs, 1, 100, 0},
		{[]float64{0.2, 0.9, 0.4, 7, 1.1}, 0.5, 1.134912, 2},
		{[]float64{0.2, 0.9, 0.4, 7, 1.1}, 0.8, 4.505329, 1},
		{[]float64{3}, 0.5, 3, 0},
	} {
		v, beyond := quantile(c.xs, c.q)
		if math.Abs(v-c.value) > 1e-5 || beyond != c.beyond {
			t.Errorf("quantile(%v, q=%v) = %v with %d beyond, want %v with %d", c.xs, c.q, v, beyond, c.value, c.beyond)
		}
	}
	if p := tailPercentile(10); p != 100 {
		t.Errorf("tailPercentile(10) = %v, want 100 (nothing can lie beyond)", p)
	}
}

// TestBetaInc checks the incomplete beta function against its closed
// forms and, at the parameter sizes a run's sample counts give, against
// binomial tails: I_x(k, n-k+1) = P(Binomial(n, x) >= k).
func TestBetaInc(t *testing.T) {
	binomialTail := func(n, k int, x float64) float64 {
		ln, _ := math.Lgamma(float64(n + 1))
		var sum float64
		for j := k; j <= n; j++ {
			lj, _ := math.Lgamma(float64(j + 1))
			lr, _ := math.Lgamma(float64(n - j + 1))
			sum += math.Exp(ln - lj - lr + float64(j)*math.Log(x) + float64(n-j)*math.Log1p(-x))
		}
		return sum
	}
	for _, x := range []float64{0.1, 0.13, 0.16, 0.84, 0.87, 0.9} {
		for _, ab := range [][2]int{{600, 90}, {90, 600}} {
			a, b := ab[0], ab[1]
			if got, want := betaInc(x, float64(a), float64(b)), binomialTail(a+b-1, a, x); math.Abs(got-want) > 1e-9 {
				t.Errorf("betaInc(%v, %d, %d) = %v, want %v", x, a, b, got, want)
			}
		}
	}
	for _, x := range []float64{0.01, 0.2, 0.5, 0.77, 0.99} {
		for _, c := range []struct {
			a, b, want float64
		}{
			{1, 1, x},
			{3.5, 1, math.Pow(x, 3.5)},
			{1, 40, 1 - math.Pow(1-x, 40)},
			{3, 3, 10*math.Pow(x, 3) - 15*math.Pow(x, 4) + 6*math.Pow(x, 5)},
		} {
			if got := betaInc(x, c.a, c.b); math.Abs(got-c.want) > 1e-12 {
				t.Errorf("betaInc(%v, %v, %v) = %v, want %v", x, c.a, c.b, got, c.want)
			}
		}
	}
	if got := betaInc(0.5, 250.5, 250.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("betaInc(0.5, a, a) = %v, want 0.5", got)
	}
}

// TestQuartilesMatchPython checks quartiles against values from Python's
// statistics.quantiles(xs, n=4), the method a harness uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestCompareBounds pins the regression rule of --compare: a median worse
// by more than the bound is flagged, in either direction of better.
func TestCompareBounds(t *testing.T) {
	rep := func(latency, ops float64) report {
		var r report
		for i := 0; i < 3; i++ {
			r.Runs = append(r.Runs, runRecord{Workload: "adversarial", Result: result{Metrics: map[string]metricValue{
				"latency_p50_s": {Value: latency, Unit: "s"},
				"ops_per_s":     {Value: ops, Unit: "1/s"},
				"pram.new_ns":   {Value: latency * 1e9, Unit: "ns"},
			}}})
		}
		return r
	}
	base := rep(1, 100)
	for _, c := range []struct {
		name        string
		b           report
		regressions int
	}{
		{"same", rep(1, 100), 0},
		{"within bounds", rep(1.24, 76), 0},
		{"improved", rep(0.5, 200), 0},
		{"slower", rep(1.26, 100), 1},
		{"less throughput", rep(1, 74), 1},
		{"both", rep(1.5, 50), 2},
	} {
		lines, n := compareReports(base, c.b)
		if n != c.regressions {
			t.Errorf("%s: %d regressions, want %d\n%v", c.name, n, c.regressions, lines)
		}
		if len(lines) != 3 {
			t.Errorf("%s: %d lines, want one per metric (per-layer metrics are printed, never flagged)", c.name, len(lines))
		}
	}
}

// TestCheckRepeats pins the determinism check: a repeat of a key with a
// different outcome fails, the first occurrence does not.
func TestCheckRepeats(t *testing.T) {
	rounds := []round{
		{ops: []op{{key: "a", out: "S=1"}, {key: "b", out: "S=2"}}},
		{ops: []op{{key: "a", out: "S=1"}, {key: "b", out: "S=3"}}},
	}
	checkRepeats(rounds)
	if rounds[0].ops[1].err != nil || rounds[1].ops[0].err != nil {
		t.Error("an op that repeats its outcome was failed")
	}
	if rounds[1].ops[1].err == nil {
		t.Error("an op whose outcome changed was not failed")
	}
}

// TestRefusesFaultInjection checks the benchmark will not measure a
// process with failpoints armed.
func TestRefusesFaultInjection(t *testing.T) {
	reg := faultinject.New(1)
	if err := reg.Enable("kernel.cycle=panic:0.5"); err != nil {
		t.Fatal(err)
	}
	prev := faultinject.Swap(reg)
	defer faultinject.Swap(prev)
	if code := run([]string{"--workload", "bigN-quiet", "--seconds", "1"}, io.Discard, io.Discard); code == 0 {
		t.Fatal("benchmark ran with fault injection armed")
	}
}

// Fakes for the wrapper test: a base value with the required methods,
// and one type per optional interface.
type (
	fakeAdversary struct{}
	fakeAlgorithm struct{}
	fakeProcessor struct{}
	quiet         struct{}
	snap          struct{}
	hinter        struct{}
	resettable    struct{}
	batcher       struct{ fakeProcessor }
)

func (fakeAdversary) Name() string                                { return "fake" }
func (fakeAdversary) Decide(*pram.View) pram.Decision             { return pram.Decision{} }
func (fakeAlgorithm) Name() string                                { return "fake" }
func (fakeAlgorithm) MemorySize(n, p int) int                     { return n }
func (fakeAlgorithm) Setup(*pram.Memory, int, int)                {}
func (fakeAlgorithm) NewProcessor(int, int, int) pram.Processor   { return fakeProcessor{} }
func (fakeAlgorithm) Done(pram.MemoryView, int, int) bool         { return true }
func (fakeProcessor) Cycle(*pram.Ctx) pram.Status                 { return pram.Halt }
func (quiet) QuiescentFor(int) int                                { return 1 }
func (snap) SnapshotState() []pram.Word                           { return nil }
func (snap) RestoreState([]pram.Word) error                       { return nil }
func (hinter) DoneCells(n, p int) int                             { return n }
func (resettable) Reset(int, int, int)                            {}
func (batcher) CycleBatch(*pram.BatchCtx, int) (int, pram.Status) { return 0, pram.Halt }

// optional reports which optional interfaces v implements.
func optional(v any) map[string]bool {
	_, q := v.(pram.Quiescence)
	_, s := v.(pram.Snapshotter)
	_, h := v.(pram.ArrayDoneHinter)
	_, r := v.(pram.Resettable)
	_, b := v.(pram.BatchCycler)
	return map[string]bool{"Quiescence": q, "Snapshotter": s, "ArrayDoneHinter": h, "Resettable": r, "BatchCycler": b}
}

func sameInterfaces(t *testing.T, what string, inner, wrapped any) {
	t.Helper()
	in, out := optional(inner), optional(wrapped)
	for name := range in {
		if in[name] != out[name] {
			t.Errorf("%s: wrapped value implements %s = %t, the value it wraps %t", what, name, out[name], in[name])
		}
	}
}

// TestWrappersForwardExactlyTheOptionalInterfaces is the trace fidelity
// guard: for every combination of optional interfaces, a timing wrapper
// implements exactly the ones the wrapped value implements, so tracing
// can neither switch a fast path off nor claim a contract.
func TestWrappersForwardExactlyTheOptionalInterfaces(t *testing.T) {
	var c calls
	advs := []pram.Adversary{
		fakeAdversary{},
		struct {
			fakeAdversary
			quiet
		}{},
		struct {
			fakeAdversary
			snap
		}{},
		struct {
			fakeAdversary
			quiet
			snap
		}{},
	}
	for _, a := range advs {
		sameInterfaces(t, "adversary", a, timeAdversary(a, &c))
	}
	algs := []pram.Algorithm{
		fakeAlgorithm{},
		struct {
			fakeAlgorithm
			hinter
		}{},
		struct {
			fakeAlgorithm
			snap
		}{},
		struct {
			fakeAlgorithm
			hinter
			snap
		}{},
	}
	for _, a := range algs {
		sameInterfaces(t, "algorithm", a, sampleAlgorithm(a, &c, 1))
	}
	procs := []pram.Processor{
		fakeProcessor{},
		struct {
			fakeProcessor
			resettable
		}{},
		struct {
			fakeProcessor
			snap
		}{},
		struct {
			fakeProcessor
			resettable
			snap
		}{},
		batcher{},
		struct {
			batcher
			resettable
		}{},
		struct {
			batcher
			snap
		}{},
		struct {
			batcher
			resettable
			snap
		}{},
	}
	for _, p := range procs {
		sameInterfaces(t, "processor", p, timeProcessor(p, &c))
	}
}

// TestBenchmarkJSONMatchesDefinitions keeps BENCHMARK.json, which a
// harness reads, in step with the metrics and workloads this program
// reports.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := doc.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
}
