// Package bench is the experiment harness that regenerates, for every
// theorem, lemma, corollary and example in the paper's evaluation, the
// quantitative shape it claims (growth exponents, crossovers, ratios).
// DESIGN.md's per-experiment index maps each experiment (E1-E18) to its
// paper claim; EXPERIMENTS.md records paper-vs-measured results.
package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/pram"
)

// Scale selects experiment sizes: Quick keeps each experiment within a few
// seconds (used by the bench_test.go targets), Full uses the sizes
// reported in EXPERIMENTS.md.
type Scale int

const (
	// Quick runs reduced sizes for smoke-testing and benchmarks.
	Quick Scale = iota + 1
	// Full runs the sizes recorded in EXPERIMENTS.md.
	Full
)

// Sweep holds the settings one sweep runs its experiments with. It
// travels with the sweep down to each point, so sweeps, labs and fabric
// tasks sharing a process cannot see each other's settings. The zero
// Parallel and Deadline run points one at a time without a watchdog.
type Sweep struct {
	// Scale selects the experiment sizes.
	Scale Scale
	// Parallel is the number of points Points evaluates at once; 0 or 1
	// runs them one at a time. Tables are identical at any setting.
	Parallel int
	// Deadline bounds the wall-clock time of every sweep point, the
	// robust executor's as well as Write-All's; zero disables the
	// watchdog. A point that exceeds it is canceled cooperatively; a
	// point whose machine is stuck inside a single tick and cannot
	// observe cancellation is abandoned (its goroutine and pooled runner
	// leak, by design) and reported as a deadline error, so one hung run
	// degrades that point rather than the whole sweep. MaxTicks bounds
	// logical time; this bounds wall-clock time — livelocks burn ticks,
	// hangs burn hours.
	Deadline time.Duration
}

// Table is one rendered experiment result.
type Table struct {
	// ID is the experiment identifier (e.g. "E6").
	ID string
	// Title is a one-line description.
	Title string
	// Claim cites the paper result and the expected shape.
	Claim string
	// Header and Rows hold the tabular data.
	Header []string
	Rows   [][]string
	// Notes holds derived observations (fitted slopes, verdicts).
	Notes []string
	// Errors reports the sweep points that failed to produce a row:
	// one entry per degraded point, "label: cause". A table with errors
	// still renders its surviving rows — a failed point degrades the
	// sweep to partial results instead of aborting it.
	Errors []string
}

// fail records a degraded point: the sweep continues with the point's
// row absent and the failure reported as data.
func (t *Table) fail(point string, err error) {
	obsDegraded()
	t.Errors = append(t.Errors, fmt.Sprintf("%s: %v", point, err))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s: %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "  paper: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%*s", widths[i], c)
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, e := range t.Errors {
		fmt.Fprintf(w, "  !! %s\n", e)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  -> %s\n", n)
	}
	fmt.Fprintln(w)
}

// RenderMarkdown writes the table as GitHub-flavored markdown, for
// regenerating EXPERIMENTS.md sections.
func (t *Table) RenderMarkdown(w io.Writer) {
	fmt.Fprintf(w, "### %s: %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "**Paper.** %s\n\n", t.Claim)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | "))
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	fmt.Fprintln(w)
	for _, e := range t.Errors {
		fmt.Fprintf(w, "> **degraded point:** %s\n", e)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "> %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment is one registered experiment.
type Experiment struct {
	// ID is the identifier used by `cmd/experiments -run`.
	ID string
	// Title describes the experiment.
	Title string
	// Run executes the experiment with the sweep's settings.
	// Cancellation of ctx stops in-flight runs at the next tick boundary
	// and drains the remaining points as canceled-point errors; the
	// returned tables hold whatever rows completed, with failed points in
	// Table.Errors.
	Run func(ctx context.Context, s Sweep) []Table
}

// All returns the full experiment registry in order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Example 2.2: thrashing adversary and update-cycle accounting", Run: E1Thrashing},
		{ID: "E2", Title: "Theorem 3.1: Omega(N log N) lower bound via the halving adversary", Run: E2LowerBound},
		{ID: "E3", Title: "Theorem 3.2: O(N log N) oblivious snapshot upper bound", Run: E3Oblivious},
		{ID: "E4", Title: "Lemma 4.2: algorithm V under fail-stop (no restart) failures", Run: E4VFailStop},
		{ID: "E5", Title: "Theorem 4.3: algorithm V restart overhead M log N", Run: E5VRestart},
		{ID: "E6", Title: "Theorem 4.8: algorithm X worst case ~ N^{log 3}", Run: E6XWorstCase},
		{ID: "E7", Title: "Theorem 4.7: algorithm X work O(N * P^{log 1.5})", Run: E7XProcessorSweep},
		{ID: "E8", Title: "Theorem 4.9: combined V+X takes the min of both bounds", Run: E8Combined},
		{ID: "E9", Title: "Theorem 4.1/Cor 4.10: simulation overhead sigma = O(log^2 N)", Run: E9Simulation},
		{ID: "E10", Title: "Corollary 4.11: sigma improves as |F| grows", Run: E10OverheadRatio},
		{ID: "E11", Title: "Corollary 4.12: work-optimal range P <= N/log^2 N", Run: E11Optimality},
		{ID: "E12", Title: "Section 5: stalking adversary vs randomized ACC", Run: E12Stalking},
		{ID: "E13", Title: "Section 5 open problem: X under fail-stop without restarts", Run: E13XFailStop},
		{ID: "E14", Title: "Remark 5 ablation: X local optimizations", Run: E14XAblation},
		{ID: "E15", Title: "open question: W vs V without restarts", Run: E15WvsV},
		{ID: "E16", Title: "load balance: V's allocation vs X's local search", Run: E16LoadBalance},
		{ID: "E17", Title: "update-cycle budget audit (Section 5 open problem)", Run: E17CycleAudit},
		{ID: "E18", Title: "word-packed memory + batched tick kernel at N=1e7-1e8", Run: E18PackedBatch},
	}
}

// Slope fits a least-squares line to (log2 x, log2 y) and returns its
// slope: the growth exponent of y in x. Points with a nonpositive
// coordinate have no logarithm and are skipped; NaN is returned only
// when fewer than two usable points remain (or all usable points share
// one x).
func Slope(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		return math.NaN()
	}
	var sx, sy, sxx, sxy, n float64
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			continue
		}
		lx, ly := math.Log2(xs[i]), math.Log2(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
		n++
	}
	if n < 2 {
		return math.NaN()
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / den
}

// outcome is one sweep point's result: the metrics, or the error that
// replaced them. Experiments assemble rows from successful outcomes and
// route errors into Table.Errors via Table.fail.
type outcome struct {
	m   pram.Metrics
	err error
}

// runWA executes one run of alg (a Write-All algorithm or the robust
// executor) on a pooled Runner under the sweep's point deadline and
// returns its metrics. A canceled ctx drains the point immediately (so a
// sweep's remaining points fall through fast after SIGINT); a run error
// — tick limit, budget violation, worker panic — is returned for
// per-point capture instead of aborting the experiment.
func (s Sweep) runWA(ctx context.Context, cfg pram.Config, alg pram.Algorithm, adv pram.Adversary) (pram.Metrics, error) {
	if err := ctx.Err(); err != nil {
		return pram.Metrics{}, fmt.Errorf("bench: point canceled: %w", err)
	}
	d := s.Deadline
	if d <= 0 {
		r := runners.Get().(*pram.Runner)
		defer runners.Put(r)
		start := obsPointStart()
		m, err := r.RunCtx(ctx, cfg, alg, adv)
		obsPointDone(start, err)
		return m, err
	}

	// Watchdog mode: run the point on its own goroutine under a
	// deadline. Cancellation is cooperative (the runner polls once per
	// batch, every tick unless BatchTicks > 1), so the normal overrun
	// path is the goroutine returning a context error shortly after the
	// deadline. The grace window covers that return trip; a machine that
	// is truly wedged inside one tick never observes cancellation, and
	// after the grace expires the point is abandoned: its goroutine and
	// runner are deliberately leaked (the runner must not return to the
	// pool mid-run) and the point reports a deadline error.
	tctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	r := runners.Get().(*pram.Runner)
	ch := make(chan outcome, 1)
	start := obsPointStart()
	go func() {
		m, err := r.RunCtx(tctx, cfg, alg, adv)
		ch <- outcome{m, err}
	}()
	grace := d/4 + time.Second
	timer := time.NewTimer(d + grace)
	defer timer.Stop()
	select {
	case out := <-ch:
		runners.Put(r)
		obsPointDone(start, out.err)
		return out.m, out.err
	case <-timer.C:
		obsPointAbandoned()
		return pram.Metrics{}, fmt.Errorf("bench: point (%s vs %s, N=%d P=%d) hung past deadline %v; abandoned",
			alg.Name(), adv.Name(), cfg.N, cfg.P, d)
	}
}

// pointCtx bounds ctx by the point deadline, for points that step
// their machine themselves.
func (s Sweep) pointCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.Deadline <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.Deadline)
}

// Run executes one Write-All run through the harness's sweep-point
// machinery — the pooled Runner and the obs point accounting — with no
// point deadline. It is the primitive the experiment registry and the
// adversary strategy lab (internal/advlab) share: a lab matchup is
// accounted and degraded exactly like a sweep point.
func Run(ctx context.Context, cfg pram.Config, alg pram.Algorithm, adv pram.Adversary) (pram.Metrics, error) {
	return Sweep{}.runWA(ctx, cfg, alg, adv)
}

// runners pools pram.Runner values so the sweep grid reuses machine
// allocations across runs and across bench.Points goroutines (a Runner is
// single-goroutine; the pool hands each worker its own).
var runners = sync.Pool{New: func() any { return new(pram.Runner) }}

func log2(n int) float64 { return math.Log2(float64(n)) }

// f2 renders a derived ratio with two decimals. Non-finite values — a
// NaN slope from too few usable points, a ratio over a degraded point's
// zero metrics — render as an em-dash rather than leaking "NaN" into
// tables.
func f2(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "—"
	}
	return fmt.Sprintf("%.2f", v)
}

func itoa(v int64) string { return fmt.Sprintf("%d", v) }
