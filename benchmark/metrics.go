package main

import (
	"math"
	"sort"

	"repro/internal/bench"
)

// metricDef describes one reported metric. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds;
// TestBenchmarkJSONMatchesDefinitions keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	Bound float64
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move when its layer gets faster or slower.
	Moves string
}

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them, measured with tracing off. Failed or wrong
// ops are not a metric here: they are the result's failed/attempted
// fields, and any failure makes the run incorrect.
//
// The bounds are as tight as the reference host allows: its two vCPUs
// share what one core delivers and the speed a thread gets drifts by up
// to 2x over minutes with the load of other tenants, so the run-to-run
// spread of a timing reaches 15-30% there (README.md has the measured
// spreads). work_S is a count and repeats exactly for a seed.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_p50_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_tail_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "makespan_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "work_S", Unit: "cycles", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

const (
	adversarial = "latency_p50_s@adversarial"
	bigN        = "latency_p50_s@bigN-quiet"
	service     = "latency_p50_s@service"
	makespan    = "makespan_s@sweep"
)

// perLayer lists the traced run's metrics, one cut per layer. Every
// traced run reports all of them; a metric of a layer the workload does
// not reach reads 0.
var perLayer = append([]metricDef{
	{Name: "pram.new_ns", Unit: "ns", Better: "lower", Moves: "setup_s@bigN-quiet"},
	{Name: "pram.tickbatch_ns_per_call", Unit: "ns", Better: "lower", Moves: bigN},
	{Name: "pram.ticks_per_call", Unit: "ticks", Better: "higher", Moves: bigN},
	{Name: "pram.batched_tick_share", Unit: "ratio", Better: "higher", Moves: bigN},
	{Name: "pram.fill_bytes_per_s", Unit: "B/s", Better: "higher", Moves: "work_per_s@bigN-quiet"},
	{Name: "pram.step_ns_per_tick", Unit: "ns", Better: "lower", Moves: adversarial},
	{Name: "pram.machine_self_share", Unit: "ratio", Better: "lower", Moves: adversarial},
	{Name: "pram.incomplete_ratio", Unit: "ratio", Better: "lower", Moves: "work_S@adversarial"},
	{Name: "pram.batch_windows", Unit: "count", Better: "higher", Moves: service},
	{Name: "pram.checkpoint_save_ns", Unit: "ns", Better: "lower", Moves: service},
	{Name: "adversary.decide_share.random", Unit: "ratio", Better: "lower", Moves: adversarial},
	{Name: "adversary.decide_share.halving", Unit: "ratio", Better: "lower", Moves: adversarial},
	{Name: "adversary.decide_share.thrashing", Unit: "ratio", Better: "lower", Moves: adversarial},
	{Name: "adversary.decide_share.postorder", Unit: "ratio", Better: "lower", Moves: adversarial},
	{Name: "adversary.decide_share.lab", Unit: "ratio", Better: "lower", Moves: adversarial},
	{Name: "adversary.decide_ns_per_call", Unit: "ns", Better: "lower", Moves: adversarial},
	{Name: "writeall.cycle_share.X", Unit: "ratio", Better: "lower", Moves: "work_per_s@adversarial"},
	{Name: "writeall.cycle_share.V", Unit: "ratio", Better: "lower", Moves: "work_per_s@adversarial"},
	{Name: "writeall.cycle_share.combined", Unit: "ratio", Better: "lower", Moves: "work_per_s@adversarial"},
	{Name: "writeall.cycle_share.W", Unit: "ratio", Better: "lower", Moves: "work_per_s@adversarial"},
}, append(experimentMetrics(), []metricDef{
	{Name: "fabric.lease_ns", Unit: "ns", Better: "lower", Moves: makespan},
	{Name: "fabric.complete_ns", Unit: "ns", Better: "lower", Moves: makespan},
	{Name: "fabric.idle_s", Unit: "s", Better: "lower", Moves: makespan},
	{Name: "fabric.heartbeats", Unit: "count", Better: "lower", Moves: makespan},
	{Name: "fabric.scaling_efficiency", Unit: "ratio", Better: "higher", Moves: makespan},
	{Name: "jobs.submit_ns", Unit: "ns", Better: "lower", Moves: service},
	{Name: "jobs.queue_wait_s", Unit: "s", Better: "lower", Moves: service},
	{Name: "jobs.run_s.run", Unit: "s", Better: "lower", Moves: service},
	{Name: "jobs.run_s.sweep", Unit: "s", Better: "lower", Moves: service},
	{Name: "jobs.run_s.sim", Unit: "s", Better: "lower", Moves: service},
	{Name: "jobs.events_bytes_per_job", Unit: "B", Better: "lower", Moves: service},
	{Name: "jobs.stream_delivery_ratio", Unit: "ratio", Better: "higher", Moves: service},
	{Name: "jobs.service_tax_ratio", Unit: "ratio", Better: "lower", Moves: service},
	{Name: "jobs.result_ns", Unit: "ns", Better: "lower", Moves: service},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: "lower", Moves: "latency_p50_s@adversarial,service"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: "latency_p50_s@adversarial,service"},
	{Name: "trace.overhead_s", Unit: "s", Better: "lower", Moves: "none: the cost of tracing itself"},
	{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower", Moves: "none: op time no layer accounts for"},
}...)...)

// layers are the modules an op's time is split across in a traced run;
// each gets a layer.<name>.self_share metric.
var layers = []string{"engine", "pram", "adversary", "writeall", "bench", "fabric", "jobs"}

func init() {
	for _, l := range layers {
		perLayer = append(perLayer, metricDef{Name: "layer." + l + ".self_share", Unit: "ratio", Better: "lower",
			Moves: "latency_p50_s of every workload that reaches the layer"})
	}
}

// experimentMetrics returns one bench.experiment_s.<ID> metric per
// registered experiment: the sweep's task list.
func experimentMetrics() []metricDef {
	var out []metricDef
	for _, e := range bench.All() {
		out = append(out, metricDef{Name: experimentMetric(e.ID), Unit: "s", Better: "lower", Moves: makespan})
	}
	return out
}

func experimentMetric(id string) string { return "bench.experiment_s." + id }

// tailPercentile is the tail rule: the highest percentile of n samples
// that still has at least ten samples beyond it, so a tail value rests on
// more than a handful of outliers. Each workload fixes its tail
// percentile by this rule at the sample count of a default-length run:
// a percentile that moved with the count would let the rounds a run
// happens to finish decide which op type the tail lands on.
func tailPercentile(n int) float64 {
	if n <= 10 {
		return 100
	}
	return 100 * float64(n-10) / float64(n)
}

// quantile returns the Harrell-Davis estimate of the q-quantile of xs and
// how many samples lie beyond the q-quantile's nearest rank (the smallest
// sample with at least a q share of the samples at or below it). xs need
// not be sorted; it is not modified.
//
// The estimate is a mean of all the order statistics weighted by how
// likely each is to be the q-quantile: sample i of n gets the mass that
// Beta(q(n+1), (1-q)(n+1)) puts on ((i-1)/n, i/n]. A single order
// statistic jumps between op types whenever an op near the rank runs a
// little faster or slower; the weighted mean moves smoothly, which narrows
// the run-to-run spread of a tail that sits between op types (README.md
// has the numbers). At q = 1 it is the maximum.
func quantile(xs []float64, q float64) (value float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := min(max(int(math.Ceil(q*float64(n))), 1), n)
	if q <= 0 || q >= 1 || n == 1 {
		return s[k-1], n - k
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	prev := 0.0
	for i, x := range s {
		cur := betaInc(float64(i+1)/float64(n), a, b)
		value += (cur - prev) * x
		prev = cur
	}
	return value, n - k
}

// betaInc returns the regularized incomplete beta function I_x(a, b), the
// Beta(a, b) distribution's CDF at x, by its continued fraction.
func betaInc(x, a, b float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(a*math.Log(x) + b*math.Log1p(-x) - la - lb + lab)
	// The fraction converges fast only below the distribution's mean;
	// above it, use I_x(a, b) = 1 - I_{1-x}(b, a).
	if x < (a+1)/(a+b+2) {
		return front * betaFraction(x, a, b) / a
	}
	return 1 - front*betaFraction(1-x, b, a)/b
}

// betaFraction evaluates the continued fraction of I_x(a, b) by the
// modified Lentz method.
func betaFraction(x, a, b float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m < 10000; m++ {
		// Even step, then odd step, of the fraction's terms.
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		step := d * c
		h *= step
		if math.Abs(step-1) < 1e-15 {
			break
		}
	}
	return h
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the
// "exclusive" interpolation), so spreads computed here match the ones a
// harness computes from the same values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	switch m {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/n, 1), m-1)
		delta := i*(m+1) - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m == 0 {
		return math.NaN()
	}
	if m%2 == 1 {
		return s[m/2]
	}
	return (s[m/2-1] + s[m/2]) / 2
}
