// Command benchjson converts `go test -bench` text output on stdin into
// machine-readable JSON on stdout. The Makefile's bench-json target pipes
// the kernel and tick-throughput benchmarks through it to regenerate
// BENCH_baseline.json, so performance baselines can be diffed across
// commits by tooling instead of by eye. Input with no benchmark result
// lines is an error and writes nothing, so a failed run cannot leave an
// empty report behind.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson > BENCH_baseline.json
//	benchjson -compare BENCH_baseline.json BENCH_new.json
//	benchjson -gate run1.json run2.json run3.json > BENCH_baseline.json
//
// In -compare mode it diffs two reports benchmark by benchmark, printing
// old/new/delta for each tracked metric, and exits 1 if any metric
// regresses by more than -threshold percent. Benchmarks present in only
// one report are noted but never fail the comparison, so baselines stay
// valid while the benchmark suite grows. Names are matched with the -cpu
// suffix stripped, so baselines captured at different GOMAXPROCS still
// line up.
//
// In -gate mode it takes three or more reports from repeated runs of the
// same suite and refuses to mint a baseline from a noisy machine: for
// every benchmark it computes the cross-run spread (max-min relative to
// the median) of each tracked metric, and if any spread exceeds -spread
// percent it prints the offenders and exits 1 with no output report.
// When every metric is stable it writes the per-metric median report to
// stdout — that is the only path by which the Makefile's bench-gate
// target lets a BENCH_*.json snapshot be accepted.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the full benchmark name including sub-benchmark path and
	// the -cpu suffix (e.g. "BenchmarkSteadyStateTick/serial/p=64-8").
	Name string `json:"name"`
	// Package is the import path the benchmark ran in.
	Package string `json:"package,omitempty"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit -> value for every "value unit" pair on the line
	// (ns/op, B/op, allocs/op, and custom b.ReportMetric units).
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the top-level JSON document.
type Report struct {
	// Goos, Goarch, CPU echo the environment lines of the bench output.
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Benchmarks holds every parsed result in input order.
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	var (
		compareMode = flag.Bool("compare", false, "compare two report files (old new) instead of converting stdin")
		gateMode    = flag.Bool("gate", false, "gate >=3 report files for cross-run stability, emit the median report")
		threshold   = flag.Float64("threshold", 25, "regression threshold in percent for -compare")
		spread      = flag.Float64("spread", 10, "max cross-run spread in percent for -gate")
		metricsFlag = flag.String("metrics", "ns/op,allocs/op", "comma-separated metrics to compare")
	)
	flag.Parse()

	if *gateMode {
		if flag.NArg() < 3 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -gate run1.json run2.json run3.json [...]")
			os.Exit(2)
		}
		reports := make([]Report, flag.NArg())
		for i, path := range flag.Args() {
			rep, err := loadReport(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			reports[i] = rep
		}
		median, unstable := gate(os.Stderr, reports, splitMetrics(*metricsFlag), *spread)
		if unstable > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d metric(s) varied beyond %.0f%% across %d runs; not minting a baseline\n",
				unstable, *spread, len(reports))
			os.Exit(1)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(median); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *compareMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -compare old.json new.json")
			os.Exit(2)
		}
		old, err := loadReport(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cur, err := loadReport(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		regressions := compare(os.Stdout, old, cur, splitMetrics(*metricsFlag), *threshold)
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d metric(s) regressed beyond %.0f%%\n", regressions, *threshold)
			os.Exit(1)
		}
		return
	}

	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(in io.Reader, out io.Writer) error {
	rep := Report{Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseLine(line)
			if ok {
				b.Package = pkg
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read bench output: %w", err)
	}
	// An empty report is the 0-byte-artifact failure mode in another
	// form (loadReport refuses it too): fail before writing anything.
	if len(rep.Benchmarks) == 0 {
		return errors.New("no benchmark results in the input")
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// parseLine parses one result line of the form
//
//	BenchmarkName-8   1000   123.4 ns/op   0 B/op   0 allocs/op
//
// returning ok = false for lines that do not fit (e.g. "BenchmarkX ---").
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters, Metrics: make(map[string]float64)}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

func loadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, fmt.Errorf("load report: %w", err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return Report{}, fmt.Errorf("parse %s: %w", path, err)
	}
	// A baseline with no benchmarks would make -compare and -gate
	// vacuously pass (nothing to diff, nothing to spread-check) — the
	// 0-byte-artifact failure mode. Refuse it loudly instead.
	if len(rep.Benchmarks) == 0 {
		return Report{}, fmt.Errorf("report %s holds no benchmarks (empty or truncated baseline)", path)
	}
	return rep, nil
}

func splitMetrics(s string) []string {
	var out []string
	for _, m := range strings.Split(s, ",") {
		if m = strings.TrimSpace(m); m != "" {
			out = append(out, m)
		}
	}
	return out
}

// cpuSuffix is the trailing "-8" GOMAXPROCS marker go test appends to
// benchmark names; it is stripped before matching so reports captured at
// different parallelism settings still compare.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// benchKey identifies a benchmark across reports: package plus name with
// the -cpu suffix normalized away.
func benchKey(b Benchmark) string {
	return b.Package + " " + cpuSuffix.ReplaceAllString(b.Name, "")
}

// compare prints an old/new/delta table for every benchmark present in
// both reports (in new-report order) and returns the number of metric
// regressions beyond threshold percent. All tracked metrics are
// lower-is-better; a metric that goes from zero to nonzero counts as a
// regression regardless of threshold (its relative delta is infinite).
func compare(out io.Writer, old, cur Report, metrics []string, threshold float64) int {
	oldByKey := make(map[string]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		oldByKey[benchKey(b)] = b
	}

	w := bufio.NewWriter(out)
	defer w.Flush()
	fmt.Fprintf(w, "%-60s %-10s %14s %14s %9s\n", "benchmark", "metric", "old", "new", "delta")
	regressions, added, removed := 0, 0, 0
	matched := make(map[string]bool, len(cur.Benchmarks))
	for _, nb := range cur.Benchmarks {
		key := benchKey(nb)
		ob, ok := oldByKey[key]
		if !ok {
			fmt.Fprintf(w, "%-60s (new benchmark, no baseline)\n", displayName(nb))
			added++
			continue
		}
		matched[key] = true
		for _, metric := range metrics {
			ov, oOK := ob.Metrics[metric]
			nv, nOK := nb.Metrics[metric]
			if !oOK || !nOK {
				continue
			}
			delta, deltaStr := relDelta(ov, nv)
			mark := ""
			if delta > threshold {
				mark = "  << regression"
				regressions++
			}
			fmt.Fprintf(w, "%-60s %-10s %14s %14s %9s%s\n",
				displayName(nb), metric, formatVal(ov), formatVal(nv), deltaStr, mark)
		}
	}
	for _, ob := range old.Benchmarks {
		if !matched[benchKey(ob)] {
			fmt.Fprintf(w, "%-60s (missing from new report)\n", displayName(ob))
			removed++
		}
	}
	if added > 0 || removed > 0 {
		// An explicit summary so suite drift is visible at a glance even
		// when the per-benchmark table scrolls; uncompared benchmarks
		// never fail the comparison.
		fmt.Fprintf(w, "benchjson: %d benchmark(s) added (no baseline), %d removed (baseline only); not compared\n",
			added, removed)
	}
	return regressions
}

// displayName shortens the package path to its last element so table rows
// stay readable ("pram/BenchmarkMachineTick/n=4096").
func displayName(b Benchmark) string {
	name := cpuSuffix.ReplaceAllString(b.Name, "")
	if b.Package == "" {
		return name
	}
	parts := strings.Split(b.Package, "/")
	return parts[len(parts)-1] + "/" + name
}

// relDelta returns the relative change in percent and its rendering.
// 0 -> 0 is no change; 0 -> x is an infinite regression.
func relDelta(old, new float64) (float64, string) {
	switch {
	case old == 0 && new == 0:
		return 0, "0.0%"
	case old == 0:
		return math.Inf(1), "+inf%"
	}
	d := (new - old) / old * 100
	return d, fmt.Sprintf("%+.1f%%", d)
}

// gate checks cross-run stability of the tracked metrics over three or
// more reports of the same suite. For each benchmark present in every
// run it computes spread = (max-min)/median per metric; spreads beyond
// maxSpread percent are reported on diag and counted. The returned
// report carries the per-metric median of each stable benchmark (in
// first-run order, then benchmarks first seen in later runs, with the
// first run's environment lines). Benchmarks missing from any run —
// including run 1, which an earlier version silently dropped — are
// noted but excluded rather than failed, so a -benchtime mismatch
// surfaces as a shrunken baseline, not a flake.
func gate(diag io.Writer, reports []Report, metrics []string, maxSpread float64) (Report, int) {
	first := reports[0]
	median := Report{Goos: first.Goos, Goarch: first.Goarch, CPU: first.CPU, Benchmarks: []Benchmark{}}

	byKey := make([]map[string]Benchmark, len(reports))
	for i, rep := range reports {
		byKey[i] = make(map[string]Benchmark, len(rep.Benchmarks))
		for _, b := range rep.Benchmarks {
			byKey[i][benchKey(b)] = b
		}
	}

	// The union of benchmark keys across every run, in order of first
	// appearance. Iterating only reports[0] would hide a benchmark that
	// run 1 skipped but later runs measured.
	var keys []string
	repr := make(map[string]Benchmark)
	for _, rep := range reports {
		for _, b := range rep.Benchmarks {
			key := benchKey(b)
			if _, ok := repr[key]; !ok {
				repr[key] = b
				keys = append(keys, key)
			}
		}
	}

	unstable := 0
	for _, key := range keys {
		b := repr[key]
		samples := make([]Benchmark, 0, len(reports))
		for _, m := range byKey {
			if s, ok := m[key]; ok {
				samples = append(samples, s)
			}
		}
		if len(samples) != len(reports) {
			fmt.Fprintf(diag, "%-60s (missing from %d of %d runs, excluded)\n",
				displayName(b), len(reports)-len(samples), len(reports))
			continue
		}

		mb := Benchmark{Name: b.Name, Package: b.Package, Metrics: make(map[string]float64)}
		iters := make([]float64, len(samples))
		for i, s := range samples {
			iters[i] = float64(s.Iterations)
		}
		mb.Iterations = int64(medianOf(iters))
		for unit := range b.Metrics {
			vals := make([]float64, 0, len(samples))
			for _, s := range samples {
				if v, ok := s.Metrics[unit]; ok {
					vals = append(vals, v)
				}
			}
			if len(vals) == len(samples) {
				mb.Metrics[unit] = medianOf(vals)
			}
		}

		for _, metric := range metrics {
			vals := make([]float64, 0, len(samples))
			for _, s := range samples {
				if v, ok := s.Metrics[metric]; ok {
					vals = append(vals, v)
				}
			}
			if len(vals) != len(samples) {
				continue
			}
			sp := spreadOf(vals)
			if sp > maxSpread {
				fmt.Fprintf(diag, "%-60s %-10s spread %.1f%% > %.0f%% (min %s, max %s)\n",
					displayName(b), metric, sp, maxSpread,
					formatVal(minOf(vals)), formatVal(maxOf(vals)))
				unstable++
			}
		}
		median.Benchmarks = append(median.Benchmarks, mb)
	}
	return median, unstable
}

// spreadOf is (max-min)/median in percent — the gate's noise measure.
// An all-zero metric (e.g. allocs/op on an alloc-free kernel) has zero
// spread; a zero median with nonzero samples is infinitely noisy.
func spreadOf(vals []float64) float64 {
	min, max, med := minOf(vals), maxOf(vals), medianOf(vals)
	if max == min {
		return 0
	}
	if med == 0 {
		return math.Inf(1)
	}
	return (max - min) / med * 100
}

func medianOf(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minOf(vals []float64) float64 {
	m := vals[0]
	for _, v := range vals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func maxOf(vals []float64) float64 {
	m := vals[0]
	for _, v := range vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

func formatVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 2, 64)
}
