// Command benchmark measures the repository end to end. It drives four
// workloads through the system's public entry points only — engine
// ExecuteRun/ExecuteSweep/ExecuteSim, pram.Runner and Machine, advlab
// strategies, the fabric Coordinator and Workers, the jobs Store — checks
// every output against a reference, and reports end-to-end metrics, or,
// in a traced run, where each op's time goes layer by layer.
//
// Build and run it from the repository root with run.sh, which keeps the
// build and everything a run writes under .bench_build/:
//
//	bash benchmark/run.sh --workload adversarial --seed 1 --seconds 20 --trace 0
//
// prints the metrics of one workload and, as its last line, a JSON
// result. Without --workload every workload runs, each in its own child
// process, --reps times, and --out keeps the results with their
// provenance; --compare reads two such reports and flags every metric
// whose median moved past its bound. README.md describes the workloads
// and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/fabric"
	"repro/internal/faultinject"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/pram"
)

// workloads are the benchmark's workloads, in the order a full run
// takes them. Their names are fixed: issues and reports refer to them.
var workloads = []workload{bigNQuiet, adversarialWL, sweepWL, serviceWL}

// result is what one run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance identifies what a report measured and where.
type provenance struct {
	GitHead    string `json:"git_head"`
	Dirty      bool   `json:"dirty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

// report is the file --out writes and --compare reads.
type report struct {
	Provenance provenance  `json:"provenance"`
	Runs       []runRecord `json:"runs"`
}

type runRecord struct {
	Workload string `json:"workload"`
	Result   result `json:"result"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload, in this process; empty runs every workload in child processes")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 20, "how long each run measures")
	trace := fs.Int("trace", 0, "1 runs traced and reports per-layer metrics instead of end-to-end ones")
	reps := fs.Int("reps", 1, "runs per workload when running every workload")
	out := fs.String("out", "", "write the report of a run of every workload to this file")
	spans := fs.String("spans", "", "traced runs: write the spans to this file (one file per workload and rep, suffixed, when running every workload)")
	compare := fs.Bool("compare", false, "compare the two report files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if faultinject.Active() != nil {
		fmt.Fprintln(stderr, "benchmark: refusing to run with fault injection armed (PRAM_FAULTS is set)")
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: --compare needs two report files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: --trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 || *reps < 1 {
		fmt.Fprintln(stderr, "benchmark: --seconds and --reps must be positive")
		return 2
	}
	prov := provenance{
		GitHead: gitHead(), Dirty: gitDirty(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPU: cpuModel(),
		Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
	}
	if *name == "" {
		return runAll(prov, *reps, *out, *spans, stdout, stderr)
	}
	for _, w := range workloads {
		if w.name == *name {
			return runOne(w, prov, *spans, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
	return 2
}

// runOne runs one workload in this process and prints its metrics, then
// the JSON result as the last line.
func runOne(w workload, prov provenance, spansPath string, stdout, stderr io.Writer) int {
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{seed: prov.Seed, dir: dir}
	var tr *tracer
	if prov.Trace {
		tr = newTracer()
		e.reg = enableObs()
	}
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "workload %s: %s\nprovenance %s\n", w.name, w.why, pj)

	m, err := measure(context.Background(), w, e, prov.Seconds, tr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if tr != nil && spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	for _, n := range m.notes {
		fmt.Fprintln(stdout, n)
	}
	defs := endToEnd
	if prov.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		v := m.res.Metrics[d.Name]
		line := fmt.Sprintf("%-36s %16.6g %s", d.Name, v.Value, v.Unit)
		if d.Moves != "" {
			line = fmt.Sprintf("%-62s moves %s", line, d.Moves)
		}
		fmt.Fprintln(stdout, line)
	}
	line, err := json.Marshal(m.res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !m.res.Correct {
		fmt.Fprintf(stderr, "benchmark: %s: %d of %d ops failed their checks\n", w.name, m.res.Failed, m.res.Attempted)
		return 1
	}
	return 0
}

// enableObs switches on the system's own counters, process-wide, for a
// traced run, and returns the registry they report to.
func enableObs() *obs.Registry {
	reg := obs.NewRegistry()
	pram.EnableObs(reg)
	bench.EnableObs(reg)
	fabric.EnableObs(reg)
	jobs.EnableObs(reg)
	return reg
}

// runAll runs every workload reps times, each run in a child process of
// its own — so process-wide state (bench parallelism, obs hooks, the
// machine pool) cannot leak between workloads and each run's peak RSS is
// its own — and writes the report.
func runAll(prov provenance, reps int, out, spans string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	rep := report{Provenance: prov}
	status := 0
	for _, w := range workloads {
		for i := 0; i < reps; i++ {
			args := []string{"--workload", w.name, "--seed", strconv.FormatInt(prov.Seed, 10),
				"--seconds", strconv.Itoa(prov.Seconds), "--trace", strconv.Itoa(boolInt(prov.Trace))}
			if spans != "" {
				args = append(args, "--spans", fmt.Sprintf("%s.%s.%d.json", strings.TrimSuffix(spans, ".json"), w.name, i))
			}
			res, err := runChild(exe, args, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s rep %d: %v\n", w.name, i, err)
				status = 1
				continue
			}
			rep.Runs = append(rep.Runs, runRecord{Workload: w.name, Result: res})
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: write report: %v\n", err)
			return 1
		}
	}
	return status
}

// runChild runs one workload in a child process, echoing its output, and
// returns the result from its last line.
func runChild(exe string, args []string, stdout, stderr io.Writer) (result, error) {
	var res result
	var buf bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = io.MultiWriter(stdout, &buf)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, errors.Join(runErr, fmt.Errorf("no result line: %w", err))
	}
	if runErr != nil {
		return res, runErr
	}
	return res, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// compareFiles prints, per workload and metric, the median and quartiles
// of each report's runs, and flags every end-to-end metric whose second
// median is worse than the first by more than its bound.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var reps [2]report
	for i, p := range []string{pathA, pathB} {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &reps[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: read report %s: %v\n", p, err)
			return 2
		}
	}
	lines, regressions := compareReports(reps[0], reps[1])
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "%d metric(s) outside their bounds\n", regressions)
		return 1
	}
	return 0
}

// compareReports compares b against a. It returns the printed lines and
// how many (workload, end-to-end metric) pairs regressed past their
// bounds.
func compareReports(a, b report) ([]string, int) {
	var lines []string
	regressions := 0
	for _, w := range workloads {
		va, vb := metricValues(a, w.name), metricValues(b, w.name)
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			xa, xb := va[d.Name], vb[d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			a1, am, a3 := quartiles(xa)
			b1, bm, b3 := quartiles(xb)
			flag := ""
			if isEndToEnd(d.Name) && worse(d, am, bm) {
				flag = "  REGRESSION"
				regressions++
			}
			lines = append(lines, fmt.Sprintf("%-12s %-36s %12.6g [%.6g, %.6g]  ->  %12.6g [%.6g, %.6g] %s%s",
				w.name, d.Name, am, a1, a3, bm, b1, b3, d.Unit, flag))
		}
	}
	return lines, regressions
}

// worse reports whether median b is worse than median a by more than the
// metric's bound.
func worse(d metricDef, a, b float64) bool {
	if d.Better == "lower" {
		return b > a*(1+d.Bound)
	}
	return b < a*(1-d.Bound)
}

func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.Name == name {
			return true
		}
	}
	return false
}

// metricValues collects, per metric, the values of every run of workload
// in r.
func metricValues(r report, workload string) map[string][]float64 {
	out := make(map[string][]float64)
	for _, run := range r.Runs {
		if run.Workload != workload {
			continue
		}
		for name, v := range run.Result.Metrics {
			out[name] = append(out[name], v.Value)
		}
	}
	return out
}

// gitHead returns the checked-out commit, or "unknown" outside a git
// work tree.
func gitHead() string {
	b, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// gitDirty reports whether the work tree has uncommitted changes (false
// outside a git work tree).
func gitDirty() bool {
	b, err := exec.Command("git", "status", "--porcelain").Output()
	return err == nil && len(bytes.TrimSpace(b)) > 0
}

// cpuModel returns the first CPU model name /proc/cpuinfo reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
