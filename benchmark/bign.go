package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pram"
)

// bigNQuiet runs the trivial assignment at N=10⁸ on packed memory through
// TickBatch: quiet windows do nearly all the work while the adversary,
// sink and service layers sit idle. It exercises the big-N fast path and
// bypasses everything else.
//
// Each run allocates a 12.5 MB machine and drops it. Whether the collector
// has reclaimed the last machine when the next one is made depends on its
// pacing, and a process settled at a peak of 34 MB or of 44 MB for all of
// its rounds; freeing the heap before each round keeps the peak within
// 33.5-37 MB in most runs.
// The other workloads' peaks were steady without it, and the service's
// 0.4 s rounds grew twice as noisy with it.
var bigNQuiet = workload{
	name:          "bigN-quiet",
	why:           "packed memory and TickBatch quiet windows do almost all the work; adversary, sink and service layers sit idle",
	tailQ:         0.65,
	freeEachRound: true,
	open:          openBigN,
}

// bigNPerRound is the number of identical runs in a round.
const bigNPerRound = 4

type bigNSession struct {
	e    *env
	spec engine.RunSpec

	// Totals over the traced runs.
	ops                  int
	lat                  time.Duration
	newNs                time.Duration
	batch, decide        calls
	ticks                int64
	windows, windowTicks int64
}

func openBigN(ctx context.Context, e *env) (session, error) {
	s := &bigNSession{e: e, spec: engine.RunSpec{
		Algorithm: "trivial", Adversary: "none", N: 100_000_000, P: 1024, Packed: true, BatchTicks: 4096,
	}}
	if e.small {
		s.spec.N, s.spec.P = 1<<16, 64
	}
	if o := s.run(ctx); o.err != nil {
		return nil, o.err
	}
	return s, nil
}

func (s *bigNSession) round(ctx context.Context, tr *tracer) (round, error) {
	var r round
	start := time.Now()
	for i := 0; i < bigNPerRound; i++ {
		if tr != nil {
			r.ops = append(r.ops, s.tracedRun(tr))
		} else {
			r.ops = append(r.ops, s.run(ctx))
		}
	}
	r.wall = time.Since(start)
	return r, nil
}

// obsWindows reads the machine's quiet-window counter, which only a traced
// run enables (-1 otherwise).
func (s *bigNSession) obsWindows() int64 {
	v, _, ok := s.e.counter(obs.MetricBatches)
	if !ok {
		return -1
	}
	return int64(v)
}

// outcome adds the quiet-window count to a traced run's outcome, so the
// traced rounds must reproduce the untraced first round's windows.
func (s *bigNSession) outcome(m pram.Metrics, windows int64) string {
	if s.e.reg == nil {
		return outcome(m)
	}
	return fmt.Sprintf("%s windows=%d", outcome(m), windows)
}

// run is the untraced op: the engine entry point, as cmd/writeall runs it.
func (s *bigNSession) run(ctx context.Context) op {
	w0 := s.obsWindows()
	start := time.Now()
	res, err := engine.ExecuteRun(ctx, s.spec, engine.RunOptions{})
	o := op{key: "trivial", alg: "trivial", lat: time.Since(start), work: res.Metrics.S(), m: res.Metrics, err: err}
	o.out = s.outcome(res.Metrics, s.obsWindows()-w0)
	return o
}

// tracedRun drives the run ExecuteRun drives — a fresh Runner and the
// batched loop of Runner.BatchTicks — with the adversary, every
// processor's batched cycles and every TickBatch call timed, and a
// counting BatchSink attached. All processors are timed, not a sample:
// the trivial processors share memory words, so the first PID of a word
// pays its cache misses for the others, and a window has few enough
// calls that timing each costs little.
func (s *bigNSession) tracedRun(tr *tracer) op {
	spec := s.spec
	o := op{key: "trivial", alg: "trivial"}
	var decide, cycle, batch calls
	sink := &windowSink{}
	w0 := s.obsWindows()

	start := time.Now()
	alg, _, err := engine.NewAlgorithm(spec.Algorithm, spec.Seed)
	if err != nil {
		o.err = err
		return o
	}
	adv, err := engine.NewAdversary(spec, spec.N, spec.P)
	if err != nil {
		o.err = err
		return o
	}
	built := time.Now()
	r := &pram.Runner{}
	defer r.Close()
	m, err := r.Machine(pram.Config{N: spec.N, P: spec.P, Packed: true, Sink: sink},
		sampleAlgorithm(alg, &cycle, 1), timeAdversary(adv, &decide))
	made := time.Now()
	for err == nil {
		t := time.Now()
		var done bool
		_, done, err = m.TickBatch(spec.BatchTicks)
		batch.since(t)
		if done {
			break
		}
	}
	end := time.Now()
	o.err = err
	if m != nil {
		o.m = m.Metrics()
	}
	o.lat = end.Sub(start)
	o.work = o.m.S()
	windows := s.obsWindows() - w0
	o.out = s.outcome(o.m, windows)
	if o.err == nil && sink.windows != windows {
		o.err = fmt.Errorf("the traced run's sink saw %d quiet windows, the machine committed %d", sink.windows, windows)
	}

	dec, cyc := tr.net(decide), tr.net(cycle)
	o.layers = map[string]time.Duration{
		"engine":    built.Sub(start),
		"adversary": dec,
		"writeall":  cyc,
		"pram":      made.Sub(built) + time.Duration(batch.Ns) - dec - cyc,
	}
	id := tr.newOp()
	root := tr.span(id, 0, "run", start, end)
	tr.span(id, root, "engine.build", start, built)
	tr.span(id, root, "pram.new", built, made)
	tr.calls(id, root, "pram.tickbatch", batch)
	tr.calls(id, root, "adversary.decide", decide)
	tr.calls(id, root, "writeall.cycle", cycle)

	s.ops++
	s.lat += o.lat
	s.newNs += made.Sub(built)
	s.batch.N += batch.N
	s.batch.Ns += batch.Ns
	s.decide.N += decide.N
	s.decide.Ns += int64(dec)
	s.ticks += int64(o.m.Ticks)
	s.windows += sink.windows
	s.windowTicks += sink.ticks
	return o
}

func (s *bigNSession) verify(context.Context, []round) error { return nil }

func (s *bigNSession) layerMetrics([]round) map[string]float64 {
	return map[string]float64{
		"pram.new_ns":                  ratio(float64(s.newNs), float64(s.ops)),
		"pram.tickbatch_ns_per_call":   ratio(s.batch.Ns, s.batch.N),
		"pram.ticks_per_call":          ratio(s.ticks, s.batch.N),
		"pram.batched_tick_share":      ratio(s.windowTicks, s.ticks),
		"pram.fill_bytes_per_s":        ratio(float64(s.ops)*float64(s.spec.N)/8, s.lat.Seconds()),
		"pram.batch_windows":           ratio(float64(s.windows), float64(s.ops)),
		"adversary.decide_ns_per_call": ratio(s.decide.Ns, s.decide.N),
	}
}

func (s *bigNSession) close() error { return nil }
