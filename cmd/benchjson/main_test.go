package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/pram
cpu: Fake CPU @ 2.00GHz
BenchmarkSteadyStateTick/serial/p=64-8         	  500000	      2100 ns/op	       0 B/op	       0 allocs/op
BenchmarkKernelWriteAll/serial-8               	     120	  9000000 ns/op	    4096 work-S/op	  131072 B/op	      40 allocs/op
BenchmarkBroken --- SKIP
PASS
ok  	repro/internal/pram	3.2s
`

func TestRunParsesBenchOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader(sample), &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU != "Fake CPU @ 2.00GHz" {
		t.Errorf("environment = %q/%q/%q", rep.Goos, rep.Goarch, rep.CPU)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	tick := rep.Benchmarks[0]
	if tick.Name != "BenchmarkSteadyStateTick/serial/p=64-8" || tick.Package != "repro/internal/pram" {
		t.Errorf("benchmark[0] = %q in %q", tick.Name, tick.Package)
	}
	if tick.Iterations != 500000 || tick.Metrics["ns/op"] != 2100 || tick.Metrics["allocs/op"] != 0 {
		t.Errorf("benchmark[0] parsed as %+v", tick)
	}
	if got := rep.Benchmarks[1].Metrics["work-S/op"]; got != 4096 {
		t.Errorf("custom metric work-S/op = %v, want 4096", got)
	}
}

// mkReport builds a one-package report from (name, ns/op, allocs/op)
// triples, exercising the same shapes bench-json emits.
func mkReport(rows ...[3]any) Report {
	rep := Report{Goos: "linux"}
	for _, r := range rows {
		rep.Benchmarks = append(rep.Benchmarks, Benchmark{
			Name:    r[0].(string),
			Package: "repro/internal/pram",
			Metrics: map[string]float64{
				"ns/op":     float64(r[1].(int)),
				"allocs/op": float64(r[2].(int)),
			},
		})
	}
	return rep
}

func TestCompareDetectsRegressions(t *testing.T) {
	metrics := []string{"ns/op", "allocs/op"}
	old := mkReport(
		[3]any{"BenchmarkA-8", 1000, 10},
		[3]any{"BenchmarkB-8", 2000, 0},
		[3]any{"BenchmarkGone-8", 50, 1},
	)

	t.Run("improvement-passes", func(t *testing.T) {
		cur := mkReport(
			[3]any{"BenchmarkA-4", 900, 2}, // different -cpu suffix must still match
			[3]any{"BenchmarkB-4", 2100, 0},
			[3]any{"BenchmarkNew-4", 10, 0},
		)
		var out strings.Builder
		if got := compare(&out, old, cur, metrics, 25); got != 0 {
			t.Errorf("compare found %d regressions, want 0\n%s", got, out.String())
		}
		for _, want := range []string{"new benchmark, no baseline", "missing from new report", "-10.0%"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("output missing %q:\n%s", want, out.String())
			}
		}
	})

	t.Run("slowdown-beyond-threshold-fails", func(t *testing.T) {
		cur := mkReport(
			[3]any{"BenchmarkA-8", 1400, 10}, // +40% ns/op
			[3]any{"BenchmarkB-8", 2000, 0},
		)
		var out strings.Builder
		if got := compare(&out, old, cur, metrics, 25); got != 1 {
			t.Errorf("compare found %d regressions, want 1\n%s", got, out.String())
		}
		if !strings.Contains(out.String(), "<< regression") {
			t.Errorf("output does not flag the regression:\n%s", out.String())
		}
	})

	t.Run("zero-to-nonzero-allocs-fails", func(t *testing.T) {
		cur := mkReport(
			[3]any{"BenchmarkA-8", 1000, 10},
			[3]any{"BenchmarkB-8", 2000, 3}, // allocs appeared from nowhere
		)
		var out strings.Builder
		if got := compare(&out, old, cur, metrics, 25); got != 1 {
			t.Errorf("compare found %d regressions, want 1\n%s", got, out.String())
		}
		if !strings.Contains(out.String(), "+inf%") {
			t.Errorf("output does not show infinite delta:\n%s", out.String())
		}
	})

	t.Run("within-threshold-passes", func(t *testing.T) {
		cur := mkReport(
			[3]any{"BenchmarkA-8", 1200, 10}, // +20% < 25%
			[3]any{"BenchmarkB-8", 2000, 0},
		)
		var out strings.Builder
		if got := compare(&out, old, cur, metrics, 25); got != 0 {
			t.Errorf("compare found %d regressions, want 0\n%s", got, out.String())
		}
	})
}

// TestCompareSummarizesAddedRemoved pins the explicit suite-drift
// summary: benchmarks present in only one report are counted in both
// directions, not just listed inline (and never fail the comparison).
func TestCompareSummarizesAddedRemoved(t *testing.T) {
	metrics := []string{"ns/op"}
	old := mkReport(
		[3]any{"BenchmarkA-8", 1000, 0},
		[3]any{"BenchmarkGone-8", 50, 0},
	)
	cur := mkReport(
		[3]any{"BenchmarkA-8", 1000, 0},
		[3]any{"BenchmarkNew-8", 10, 0},
	)
	var out strings.Builder
	if got := compare(&out, old, cur, metrics, 25); got != 0 {
		t.Fatalf("suite drift counted as %d regressions, want 0\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "1 benchmark(s) added (no baseline), 1 removed (baseline only)") {
		t.Errorf("output missing the added/removed summary:\n%s", out.String())
	}

	t.Run("no-drift-no-summary", func(t *testing.T) {
		var out strings.Builder
		compare(&out, old, old, metrics, 25)
		if strings.Contains(out.String(), "added") || strings.Contains(out.String(), "removed") {
			t.Errorf("summary printed for identical suites:\n%s", out.String())
		}
	})
}

func TestGateAcceptsStableRuns(t *testing.T) {
	metrics := []string{"ns/op", "allocs/op"}
	runs := []Report{
		mkReport([3]any{"BenchmarkA-8", 1000, 10}, [3]any{"BenchmarkB-8", 2000, 0}),
		mkReport([3]any{"BenchmarkA-8", 1050, 10}, [3]any{"BenchmarkB-8", 1960, 0}),
		mkReport([3]any{"BenchmarkA-8", 980, 10}, [3]any{"BenchmarkB-8", 2040, 0}),
	}
	var diag strings.Builder
	median, unstable := gate(&diag, runs, metrics, 10)
	if unstable != 0 {
		t.Fatalf("gate rejected stable runs (%d unstable):\n%s", unstable, diag.String())
	}
	if len(median.Benchmarks) != 2 {
		t.Fatalf("median report has %d benchmarks, want 2", len(median.Benchmarks))
	}
	if got := median.Benchmarks[0].Metrics["ns/op"]; got != 1000 {
		t.Errorf("median ns/op for A = %v, want 1000", got)
	}
	if got := median.Benchmarks[1].Metrics["ns/op"]; got != 2000 {
		t.Errorf("median ns/op for B = %v, want 2000", got)
	}
}

func TestGateRejectsNoisyRuns(t *testing.T) {
	metrics := []string{"ns/op", "allocs/op"}
	runs := []Report{
		mkReport([3]any{"BenchmarkA-8", 1000, 10}),
		mkReport([3]any{"BenchmarkA-8", 1300, 10}), // 30% spread on ns/op
		mkReport([3]any{"BenchmarkA-8", 1010, 10}),
	}
	var diag strings.Builder
	_, unstable := gate(&diag, runs, metrics, 10)
	if unstable != 1 {
		t.Fatalf("gate found %d unstable metrics, want 1\n%s", unstable, diag.String())
	}
	if !strings.Contains(diag.String(), "spread") {
		t.Errorf("diagnostics do not name the spread:\n%s", diag.String())
	}
}

func TestGateExcludesPartialBenchmarks(t *testing.T) {
	metrics := []string{"ns/op"}
	runs := []Report{
		mkReport([3]any{"BenchmarkA-8", 1000, 0}, [3]any{"BenchmarkFlaky-8", 5, 0}),
		mkReport([3]any{"BenchmarkA-8", 1000, 0}),
		mkReport([3]any{"BenchmarkA-8", 1000, 0}),
	}
	var diag strings.Builder
	median, unstable := gate(&diag, runs, metrics, 10)
	if unstable != 0 {
		t.Fatalf("missing benchmark counted as instability:\n%s", diag.String())
	}
	if len(median.Benchmarks) != 1 || !strings.Contains(median.Benchmarks[0].Name, "BenchmarkA") {
		t.Fatalf("median report = %+v, want only BenchmarkA", median.Benchmarks)
	}
	if !strings.Contains(diag.String(), "excluded") {
		t.Errorf("diagnostics do not note the exclusion:\n%s", diag.String())
	}
}

// TestGateReportsBenchmarksAbsentFromFirstRun pins the other direction
// of partial coverage: a benchmark the first run skipped but later runs
// measured used to vanish from both the median report and the
// diagnostics; it must be excluded loudly, like any partial benchmark.
func TestGateReportsBenchmarksAbsentFromFirstRun(t *testing.T) {
	metrics := []string{"ns/op"}
	runs := []Report{
		mkReport([3]any{"BenchmarkA-8", 1000, 0}),
		mkReport([3]any{"BenchmarkA-8", 1000, 0}, [3]any{"BenchmarkLate-8", 7, 0}),
		mkReport([3]any{"BenchmarkA-8", 1000, 0}, [3]any{"BenchmarkLate-8", 8, 0}),
	}
	var diag strings.Builder
	median, unstable := gate(&diag, runs, metrics, 10)
	if unstable != 0 {
		t.Fatalf("missing benchmark counted as instability:\n%s", diag.String())
	}
	if len(median.Benchmarks) != 1 || !strings.Contains(median.Benchmarks[0].Name, "BenchmarkA") {
		t.Fatalf("median report = %+v, want only BenchmarkA", median.Benchmarks)
	}
	if !strings.Contains(diag.String(), "BenchmarkLate") || !strings.Contains(diag.String(), "excluded") {
		t.Errorf("diagnostics do not report the benchmark absent from run 1:\n%s", diag.String())
	}
}

func TestGateNormalizesCPUSuffixAcrossRuns(t *testing.T) {
	// Runs captured at different GOMAXPROCS must still line up.
	runs := []Report{
		mkReport([3]any{"BenchmarkA-8", 1000, 0}),
		mkReport([3]any{"BenchmarkA-4", 1010, 0}),
		mkReport([3]any{"BenchmarkA-2", 990, 0}),
	}
	var diag strings.Builder
	median, unstable := gate(&diag, runs, []string{"ns/op"}, 10)
	if unstable != 0 || len(median.Benchmarks) != 1 {
		t.Fatalf("gate = %d unstable, %d benchmarks; want 0, 1\n%s",
			unstable, len(median.Benchmarks), diag.String())
	}
}

func TestSpreadOf(t *testing.T) {
	if got := spreadOf([]float64{100, 100, 100}); got != 0 {
		t.Errorf("spread of constant = %v, want 0", got)
	}
	if got := spreadOf([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of zeros = %v, want 0", got)
	}
	if got := spreadOf([]float64{90, 100, 110}); got < 19.9 || got > 20.1 {
		t.Errorf("spread of 90..110 = %v, want ~20", got)
	}
	if got := spreadOf([]float64{0, 0, 5}); !math.IsInf(got, 1) {
		t.Errorf("spread with zero median = %v, want +inf", got)
	}
}

func TestBenchKeyNormalizesCPUSuffix(t *testing.T) {
	a := Benchmark{Name: "BenchmarkX/p=64-8", Package: "p"}
	b := Benchmark{Name: "BenchmarkX/p=64-2", Package: "p"}
	c := Benchmark{Name: "BenchmarkX/p=64", Package: "p"}
	if benchKey(a) != benchKey(b) || benchKey(a) != benchKey(c) {
		t.Errorf("keys differ: %q %q %q", benchKey(a), benchKey(b), benchKey(c))
	}
	// A sub-benchmark whose own name ends in a number must not lose it
	// unless it is a -N suffix.
	d := Benchmark{Name: "BenchmarkX/n=4096", Package: "p"}
	if !strings.Contains(benchKey(d), "n=4096") {
		t.Errorf("benchKey(%q) = %q mangled the sub-benchmark name", d.Name, benchKey(d))
	}
}

func TestParseLineRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX --- SKIP",
		"BenchmarkX",
		"BenchmarkX notanumber 10 ns/op",
		"BenchmarkX 10 nounitvalue",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("parseLine(%q) accepted malformed line", line)
		}
	}
}

// TestRunRejectsEmpty pins the same contract on the way in: bench
// output with no result lines (a failed or filtered-out run) must fail
// the conversion and write nothing, not produce an empty report.
func TestRunRejectsEmpty(t *testing.T) {
	for _, in := range []string{"", "PASS\nok  \trepro/internal/pram\t0.1s\n", "BenchmarkBroken --- SKIP\n"} {
		var out bytes.Buffer
		if err := run(strings.NewReader(in), &out); err == nil {
			t.Errorf("run(%q) succeeded, want an error", in)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) wrote %q, want nothing", in, out.String())
		}
	}
}

// TestLoadReportRejectsEmpty pins the loud-failure contract: a 0-byte
// or benchmark-less baseline must error out of -compare/-gate instead
// of vacuously passing (the BENCH_pr8.json 0-byte-artifact bug).
func TestLoadReportRejectsEmpty(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string][]byte{
		"zero.json":   nil,
		"hollow.json": []byte(`{"benchmarks":[]}`),
		"bare.json":   []byte(`{}`),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadReport(path); err == nil {
			t.Errorf("loadReport(%s) must reject a report with no benchmarks", name)
		}
	}
}
