package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/pram"
)

// op is one measured operation: a Write-All run, a sweep task (lease to
// commit) or a job (submit to result).
type op struct {
	// key names the op's input. Ops with equal keys must have equal out:
	// the system is deterministic, so a repeat that differs is wrong.
	key string
	// class groups ops for per-class layer shares: the adversary class of
	// a run, the kind of a job.
	class string
	alg   string
	lat   time.Duration
	// work is the op's completed update cycles S (Definition 2.2).
	work int64
	// out is the op's deterministic outcome, compared across repeats and
	// with a reference computed outside the timed phase.
	out string
	err error
	// m is a run op's accounting.
	m pram.Metrics
	// layers is filled in traced rounds: the op's self time by layer.
	layers map[string]time.Duration
}

// round is one pass over a workload's op list. Rounds repeat the same
// ops, so every round has the same mix and metrics do not depend on how
// many rounds a run finishes.
type round struct {
	ops []op
	// wall is the round's makespan: from its start until its last op
	// completed.
	wall time.Duration
	// peakMB is the process's peak resident set during the round.
	peakMB float64
}

// session is an opened workload: set up, warmed up, ready for rounds.
type session interface {
	// round runs one round; tr is nil for an untraced round.
	round(ctx context.Context, tr *tracer) (round, error)
	// verify checks every op's output against references computed
	// outside the timed phase, setting err on each wrong op. It may also
	// fill in op work the ops could not see.
	verify(ctx context.Context, rounds []round) error
	// layerMetrics returns the workload's per-layer metrics from the
	// traced rounds (those after the first).
	layerMetrics(rounds []round) map[string]float64
	close() error
}

// workload is one benchmark workload.
type workload struct {
	name string
	why  string
	// tailQ is the workload's tail percentile (as a fraction), fixed by
	// the tail rule at the op count of a default-length run.
	tailQ float64
	// perRound makes the whole round the op that the latency and
	// throughput metrics time. The round's ops stay the unit of the
	// output checks and of the per-layer cut.
	perRound bool
	// freeEachRound collects the heap and returns its free memory to the
	// system before each round, so the round's peak resident set is what
	// the round itself needs, not what the collector still held from the
	// last one.
	freeEachRound bool
	open          func(ctx context.Context, e *env) (session, error)
}

// env is what a workload may use besides its inputs.
type env struct {
	seed int64
	// dir holds ledgers and job stores; the run removes it at exit.
	dir string
	// small shrinks every input so the whole workload runs in about a
	// second (the smoke test).
	small bool
	// reg is the registry the system's own counters report to in a
	// traced run; nil otherwise.
	reg *obs.Registry
	// setup counts the set-ups done so far, to name their directories.
	setup int
}

// counter reads a counter or histogram sample from the traced run's
// registry: its value (a histogram's observation count) and a
// histogram's sum. ok is false when the run is not traced.
func (e *env) counter(name string) (value float64, sum int64, ok bool) {
	if e.reg == nil {
		return 0, 0, false
	}
	for _, s := range e.reg.Snapshot() {
		if s.Name == name {
			return s.Value, s.Sum, true
		}
	}
	return 0, 0, true
}

// A run sets its workload up at least minSetups times and until a second
// of set-up has passed, at most maxSetups times; setup_s is the median.
// Cheap set-ups get more samples, so their median is as steady as that of
// expensive ones.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = time.Second
)

// outcome renders a run's deterministic accounting.
func outcome(m pram.Metrics) string {
	return fmt.Sprintf("S=%d S'=%d ticks=%d F=%d", m.S(), m.SPrime(), m.Ticks, m.FSize())
}

// measured is one run of one workload.
type measured struct {
	res result
	// notes are human-readable lines printed before the result.
	notes []string
}

// measure sets w up repeatedly, runs rounds until seconds have
// passed, checks every output and computes the metrics. With a tracer the
// run is traced: its first round runs untraced as the reference, and at
// least one traced round follows.
func measure(ctx context.Context, w workload, e *env, seconds int, tr *tracer) (measured, error) {
	traced := tr != nil
	var out measured
	var setups []float64
	var setupTime time.Duration
	var s session
	for i := 0; i < maxSetups && (i < minSetups || setupTime < setupBudget); i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return out, err
			}
		}
		e.setup = i
		start := time.Now()
		var err error
		if s, err = w.open(ctx, e); err != nil {
			return out, fmt.Errorf("%s: set up: %w", w.name, err)
		}
		d := time.Since(start)
		setupTime += d
		setups = append(setups, d.Seconds())
	}

	minRounds := 1
	if traced {
		minRounds = 2
	}
	// The traced rounds' allocation and collections, for the runtime
	// metrics.
	var allocBytes uint64
	var gcCycles uint32
	var rounds []round
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for len(rounds) < minRounds || time.Now().Before(deadline) {
		var rt *tracer
		if traced && len(rounds) > 0 {
			rt = tr
		}
		if w.freeEachRound {
			debug.FreeOSMemory()
		}
		resetPeakRSS()
		var before, after runtime.MemStats
		if rt != nil {
			runtime.ReadMemStats(&before)
		}
		r, err := s.round(ctx, rt)
		if err != nil {
			s.close()
			return out, fmt.Errorf("%s: round %d: %w", w.name, len(rounds), err)
		}
		r.peakMB = peakRSSMB()
		if rt != nil {
			runtime.ReadMemStats(&after)
			allocBytes += after.TotalAlloc - before.TotalAlloc
			gcCycles += after.NumGC - before.NumGC
		}
		rounds = append(rounds, r)
	}

	if err := s.verify(ctx, rounds); err != nil {
		s.close()
		return out, fmt.Errorf("%s: verify: %w", w.name, err)
	}
	checkRepeats(rounds)
	if err := s.close(); err != nil {
		return out, err
	}

	var all []op
	for _, r := range rounds {
		all = append(all, r.ops...)
	}
	out.res.Attempted = len(all)
	for _, o := range all {
		if o.err != nil {
			out.res.Failed++
			out.notes = append(out.notes, fmt.Sprintf("FAIL %s: %v", o.key, o.err))
		}
	}
	out.res.Correct = out.res.Failed == 0
	out.notes = append(out.notes, fmt.Sprintf("%d set-ups, %d rounds, %d ops", len(setups), len(rounds), len(all)))

	if !traced {
		var m map[string]float64
		m, out.notes = endToEndMetrics(w, setups, rounds, out.notes)
		out.res.Metrics = withUnits(endToEnd, m)
		return out, nil
	}
	m := s.layerMetrics(rounds)
	addTraceMetrics(w, m, rounds, allocBytes, gcCycles)
	out.res.Metrics = withUnits(perLayer, m)
	return out, nil
}

// endToEndMetrics computes the untraced metrics of a run.
func endToEndMetrics(w workload, setups []float64, rounds []round, notes []string) (map[string]float64, []string) {
	var walls, peaks []float64
	var wall time.Duration
	var work int64
	for _, r := range rounds {
		walls = append(walls, r.wall.Seconds())
		peaks = append(peaks, r.peakMB)
		wall += r.wall
		for _, o := range r.ops {
			work += o.work
		}
	}
	lats := latencies(w, rounds)
	var roundWork int64
	for _, o := range rounds[0].ops {
		roundWork += o.work
	}
	p50, _ := quantile(lats, 0.5)
	tailV, beyond := quantile(lats, w.tailQ)
	timed := "ops"
	if w.perRound {
		timed = "rounds"
	}
	notes = append(notes, fmt.Sprintf("latency_tail_s is p%g of %d %s, %d beyond it (the tail rule at this count: p%.1f)",
		100*w.tailQ, len(lats), timed, beyond, tailPercentile(len(lats))))
	return map[string]float64{
		"setup_s":        median(setups),
		"latency_p50_s":  p50,
		"latency_tail_s": tailV,
		"ops_per_s":      float64(len(lats)) / wall.Seconds(),
		"work_per_s":     float64(work) / wall.Seconds(),
		"makespan_s":     median(walls),
		"work_S":         float64(roundWork),
		"peak_rss_mb":    median(peaks),
	}, notes
}

// latencies returns the latencies of the ops in rounds, in seconds, or
// each round's wall time when the workload times whole rounds.
func latencies(w workload, rounds []round) []float64 {
	var out []float64
	for _, r := range rounds {
		if w.perRound {
			out = append(out, r.wall.Seconds())
			continue
		}
		for _, o := range r.ops {
			out = append(out, o.lat.Seconds())
		}
	}
	return out
}

// addTraceMetrics adds the metrics every traced run shares: runtime cost
// per op, the tracing overhead against the untraced first round, and
// each layer's share of op time with what no layer accounts for.
// allocBytes and gcCycles are the traced rounds' allocation and
// collections.
func addTraceMetrics(w workload, m map[string]float64, rounds []round, allocBytes uint64, gcCycles uint32) {
	var ops int
	var total time.Duration
	byLayer := make(map[string]time.Duration)
	for _, r := range rounds[1:] {
		for _, o := range r.ops {
			ops++
			total += o.lat
			for l, d := range o.layers {
				byLayer[l] += d
			}
		}
	}
	refP50, _ := quantile(latencies(w, rounds[:1]), 0.5)
	p50, _ := quantile(latencies(w, rounds[1:]), 0.5)
	m["trace.overhead_s"] = p50 - refP50
	m["runtime.alloc_bytes_per_op"] = float64(allocBytes) / float64(ops)
	m["runtime.gc_cycles"] = float64(gcCycles)
	attributed := time.Duration(0)
	for _, l := range layers {
		m["layer."+l+".self_share"] = ratio(byLayer[l], total)
		attributed += byLayer[l]
	}
	m["trace.unattributed_share"] = ratio(total-attributed, total)
}

// checkRepeats fails every op whose outcome differs from the first op
// with the same key: S, ticks and |F| must repeat exactly.
func checkRepeats(rounds []round) {
	first := make(map[string]string)
	for _, r := range rounds {
		for i := range r.ops {
			o := &r.ops[i]
			if o.err != nil {
				continue
			}
			want, seen := first[o.key]
			if !seen {
				first[o.key] = o.out
				continue
			}
			if o.out != want {
				o.err = fmt.Errorf("outcome %q differs from an earlier repeat's %q", o.out, want)
			}
		}
	}
}

// withUnits pairs every defined metric with its unit; a metric the run
// did not produce reads 0.
func withUnits(defs []metricDef, m map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}

// ratio returns a/b, or 0 when b is 0.
func ratio[T int64 | float64 | time.Duration](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// resetPeakRSS restarts the kernel's record of the process's peak
// resident set (VmHWM) from the current resident set, so the next
// peakRSSMB covers only what follows. Where the kernel does not allow it,
// the record keeps covering the whole process, a larger but still true
// peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB,
// or 0 where /proc does not report it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
