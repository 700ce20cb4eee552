package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// serviceWL drives the job service cmd/pramd serves: a persistent store
// with two workers and two closed-loop clients, each submitting a job,
// following its event stream to the end and fetching the result. The
// JSON-lines event sink, checkpoints, status persistence and the sweep
// lock dominate; a run job costs many times a bare run of its spec, and
// batching disengages because the job sink is not a BatchSink. The
// benchmark shows that cost; it does not fix it.
var serviceWL = workload{
	name:  "service",
	why:   "the pramd job path: store, JSON-lines event sink, checkpoints and status persistence around each run, sim and sweep job",
	tailQ: 0.95,
	open:  openService,
}

const (
	serviceWorkers = 2
	serviceClients = 2
)

// serviceSpecs generates one round of jobs from seed: six small run jobs
// under random failures, one trivial packed+batched run (about one job in
// ten; long enough to checkpoint), three simulations and one small sweep.
// A run job writes its whole event stream to disk, so the simulations,
// which write none, keep the workload's writes near 1 GB per 20 s. The
// mix is fixed; the seed draws the adversaries' streams and the order.
func serviceSpecs(seed int64, small bool) []jobs.Spec {
	rng := rand.New(rand.NewSource(seed))
	ns, big, bigP, simN := []int{1 << 9, 1 << 10}, 1<<15, 8, 128
	if small {
		ns, big, bigP, simN = []int{1 << 5, 1 << 6}, 1<<10, 8, 16
	}
	var out []jobs.Spec
	for _, alg := range []string{"V", "X", "combined"} {
		for _, n := range ns {
			rs := engine.RunSpec{Algorithm: alg, Adversary: "random", N: n, P: n / 4,
				Seed: rng.Int63(), FailProb: 0.05, RestartProb: 0.5, MaxEvents: int64(n)}
			out = append(out, jobs.Spec{Kind: jobs.KindRun, Run: &rs})
		}
	}
	trivial := engine.RunSpec{Algorithm: "trivial", Adversary: "none", N: big, P: bigP, Packed: true, BatchTicks: 4096}
	out = append(out, jobs.Spec{Kind: jobs.KindRun, Run: &trivial})
	for _, prog := range []string{"prefix-sum", "reduce-sum", "odd-even-sort"} {
		ss := engine.SimSpec{Program: prog, N: simN, Adversary: "random", Seed: rng.Int63(), FailProb: 0.05, RestartProb: 0.5}
		out = append(out, jobs.Spec{Kind: jobs.KindSim, Sim: &ss})
	}
	// One point at a time, so the job's sweep adds one thread of load,
	// not one per core.
	sw := engine.SweepSpec{Run: []string{"E1", "E4", "E13"}, Parallel: 1}
	out = append(out, jobs.Spec{Kind: jobs.KindSweep, Sweep: &sw})
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// jobTrace is what a round learns about one job beyond its op.
type jobTrace struct {
	kind                 jobs.Kind
	id, key              string // job ID, spec key
	submit, result       time.Duration
	queue, run           time.Duration
	received             int64 // run-event lines delivered to the subscriber
	fileLines, fileBytes int64 // the job's events.jsonl
}

type serviceSession struct {
	e     *env
	dir   string
	store *jobs.Store
	specs []jobs.Spec

	// Traced totals: per-job records, and the machine counters' change
	// over the traced rounds.
	traced        []jobTrace
	windows       float64
	saves, saveNs float64
	// bare is each run job's bare ExecuteRun time, from verify.
	bare map[string]time.Duration
}

func openService(ctx context.Context, e *env) (session, error) {
	dir := filepath.Join(e.dir, fmt.Sprintf("service-%d", e.setup))
	store, err := jobs.Open(dir, jobs.Options{Workers: serviceWorkers})
	if err != nil {
		return nil, err
	}
	s := &serviceSession{e: e, dir: dir, store: store, specs: serviceSpecs(e.seed, e.small)}
	warm := engine.RunSpec{Algorithm: "V", Adversary: "random", N: 256, P: 64, Seed: 1, FailProb: 0.05, RestartProb: 0.5, MaxEvents: 256}
	if o, _ := s.job(ctx, jobs.Spec{Kind: jobs.KindRun, Run: &warm}, nil); o.err != nil {
		s.close()
		return nil, o.err
	}
	return s, nil
}

func (s *serviceSession) round(ctx context.Context, tr *tracer) (round, error) {
	var w0, c0, ns0 float64
	if tr != nil {
		w0, _, _ = s.e.counter(obs.MetricBatches)
		var sum int64
		c0, sum, _ = s.e.counter(obs.MetricCheckpointSaveNs)
		ns0 = float64(sum)
	}
	ops := make([]op, len(s.specs))
	traces := make([]jobTrace, len(s.specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.specs) {
					return
				}
				ops[i], traces[i] = s.job(ctx, s.specs[i], tr)
			}
		}()
	}
	wg.Wait()
	r := round{ops: ops, wall: time.Since(start)}

	for _, t := range traces {
		if t.id == "" {
			continue // never submitted
		}
		dir := filepath.Join(s.store.Dir(), "jobs", t.id)
		if tr != nil {
			if t.kind == jobs.KindRun {
				data, err := os.ReadFile(filepath.Join(dir, "events.jsonl"))
				if err != nil {
					return r, err
				}
				t.fileBytes = int64(len(data))
				t.fileLines = int64(bytes.Count(data, []byte{'\n'}))
			}
			s.traced = append(s.traced, t)
		}
		// Finished jobs are never read again; dropping their files keeps
		// the workload's disk footprint to one round's.
		if err := os.RemoveAll(dir); err != nil {
			return r, err
		}
	}
	if tr != nil {
		w1, _, _ := s.e.counter(obs.MetricBatches)
		c1, sum, _ := s.e.counter(obs.MetricCheckpointSaveNs)
		s.windows += w1 - w0
		s.saves += c1 - c0
		s.saveNs += float64(sum) - ns0
	}
	return r, nil
}

// job submits spec, follows its event stream until the store closes it,
// and fetches the result.
func (s *serviceSession) job(ctx context.Context, spec jobs.Spec, tr *tracer) (op, jobTrace) {
	o := op{key: specKey(spec), class: string(spec.Kind)}
	t := jobTrace{kind: spec.Kind, key: o.key}
	start := time.Now()
	j, err := s.store.Submit(spec)
	if err != nil {
		o.err = err
		return o, t
	}
	t.id = j.ID
	submitted := time.Now()
	ch, stop, err := s.store.Subscribe(j.ID)
	if err != nil {
		o.err = err
		return o, t
	}
	for line := range ch {
		if !bytes.HasPrefix(line, []byte(`{"ev":"state"`)) {
			t.received++
		}
	}
	stop()
	drained := time.Now()
	raw, err := s.store.Result(j.ID)
	end := time.Now()
	o.lat = end.Sub(start)
	if err != nil {
		rec, _ := s.store.Get(j.ID)
		o.err = fmt.Errorf("job %s ended %s (%s): %w", j.ID, rec.State, rec.Error, err)
		return o, t
	}
	o.work, o.out, o.err = decodeResult(spec.Kind, raw)
	if tr == nil {
		return o, t
	}
	rec, err := s.store.Get(j.ID)
	if err != nil {
		o.err = err
		return o, t
	}
	t.submit, t.result = submitted.Sub(start), end.Sub(drained)
	t.queue, t.run = rec.Started.Sub(rec.Created), rec.Finished.Sub(rec.Started)
	// The store's timestamps are wall-clock; every moment of the job is
	// either the store's (submit, queue, persist and notify, result) or
	// the engine's run.
	o.layers = map[string]time.Duration{"jobs": o.lat - t.run, "engine": t.run}
	id := tr.newOp()
	root := tr.span(id, 0, "job "+string(spec.Kind), start, end)
	tr.span(id, root, "jobs.submit", start, submitted)
	tr.span(id, root, "jobs.queue", rec.Created, rec.Started)
	tr.span(id, root, "engine.run", rec.Started, rec.Finished)
	tr.span(id, root, "jobs.notify", rec.Finished, drained)
	tr.span(id, root, "jobs.result", drained, end)
	return o, t
}

// specKey identifies a job's input.
func specKey(spec jobs.Spec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		return fmt.Sprintf("unencodable %v", err)
	}
	return string(b)
}

// decodeResult reads a job's result.json: its work S and its
// deterministic outcome.
func decodeResult(kind jobs.Kind, raw []byte) (int64, string, error) {
	switch kind {
	case jobs.KindRun:
		var r engine.RunResult
		if err := json.Unmarshal(raw, &r); err != nil {
			return 0, "", fmt.Errorf("decode run result: %w", err)
		}
		return r.Metrics.S(), outcome(r.Metrics), nil
	case jobs.KindSim:
		var r engine.SimResult
		if err := json.Unmarshal(raw, &r); err != nil {
			return 0, "", fmt.Errorf("decode sim result: %w", err)
		}
		return r.Metrics.S(), simOutcome(r), nil
	case jobs.KindSweep:
		var r engine.SweepResult
		if err := json.Unmarshal(raw, &r); err != nil {
			return 0, "", fmt.Errorf("decode sweep result: %w", err)
		}
		return 0, sweepOutcome(r), nil
	}
	return 0, "", fmt.Errorf("unknown job kind %q", kind)
}

func simOutcome(r engine.SimResult) string {
	return fmt.Sprintf("%s validated=%t", outcome(r.Metrics), r.Validated)
}

func sweepOutcome(r engine.SweepResult) string {
	var out string
	for _, x := range r.Experiments {
		out += canonicalTables(x.Tables)
	}
	return out
}

// verify executes each distinct job spec bare, through the engine entry
// point the store calls, and requires every job's result to match.
func (s *serviceSession) verify(ctx context.Context, rounds []round) error {
	ref := make(map[string]string)
	s.bare = make(map[string]time.Duration)
	for _, spec := range s.specs {
		key := specKey(spec)
		start := time.Now()
		switch spec.Kind {
		case jobs.KindRun:
			res, err := engine.ExecuteRun(ctx, *spec.Run, engine.RunOptions{})
			if err != nil {
				return fmt.Errorf("bare run: %w", err)
			}
			ref[key] = outcome(res.Metrics)
			s.bare[key] = time.Since(start)
		case jobs.KindSim:
			res, err := engine.ExecuteSim(ctx, *spec.Sim)
			if err != nil {
				return fmt.Errorf("bare sim: %w", err)
			}
			ref[key] = simOutcome(res)
		case jobs.KindSweep:
			res, err := engine.ExecuteSweep(ctx, *spec.Sweep, engine.SweepOptions{})
			if err != nil {
				return fmt.Errorf("bare sweep: %w", err)
			}
			ref[key] = sweepOutcome(res)
		}
	}
	for _, r := range rounds {
		for i := range r.ops {
			o := &r.ops[i]
			if o.err == nil && o.out != ref[o.key] {
				o.err = fmt.Errorf("result %q differs from a bare execution's %q", o.out, ref[o.key])
			}
		}
	}
	return nil
}

func (s *serviceSession) layerMetrics([]round) map[string]float64 {
	var submit, result, queue time.Duration
	runs := make(map[jobs.Kind][]float64)
	var runJobs, received, fileLines, fileBytes int64
	var jobRun, bare time.Duration
	for _, t := range s.traced {
		submit += t.submit
		result += t.result
		queue += t.queue
		runs[t.kind] = append(runs[t.kind], t.run.Seconds())
		if t.kind == jobs.KindRun {
			runJobs++
			received += t.received
			fileLines += t.fileLines
			fileBytes += t.fileBytes
			jobRun += t.run
			bare += s.bare[t.key]
		}
	}
	n := float64(len(s.traced))
	mean := func(xs []float64) float64 {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		return ratio(sum, float64(len(xs)))
	}
	return map[string]float64{
		"jobs.submit_ns":             ratio(float64(submit), n),
		"jobs.queue_wait_s":          ratio(queue.Seconds(), n),
		"jobs.run_s.run":             mean(runs[jobs.KindRun]),
		"jobs.run_s.sweep":           mean(runs[jobs.KindSweep]),
		"jobs.run_s.sim":             mean(runs[jobs.KindSim]),
		"jobs.events_bytes_per_job":  ratio(fileBytes, runJobs),
		"jobs.stream_delivery_ratio": ratio(received, fileLines),
		"jobs.service_tax_ratio":     ratio(jobRun, bare),
		"jobs.result_ns":             ratio(float64(result), n),
		"pram.batch_windows":         ratio(s.windows, float64(runJobs)),
		"pram.checkpoint_save_ns":    ratio(s.saveNs, s.saves),
	}
}

func (s *serviceSession) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.store.Close(ctx); err != nil {
		return err
	}
	return os.RemoveAll(s.dir)
}
