package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/pram"
)

// sweepWL runs the quick experiment sweep as a Do-All over two in-process
// fabric workers, a fresh ledger per sweep, after a single-process
// ExecuteSweep as the baseline and reference. E12 is the straggler that
// sets the makespan. Lease, ledger-fsync and scheduling changes show here
// and nowhere else.
//
// Its latency and throughput metrics time whole sweeps: the user of a
// sweep waits for all of its tables. A task's own latency depends on which
// task the other worker runs beside it on the shared core, so the task
// latencies' median and tail moved by 20% from run to run on the same
// code, a sweep's by 5%. The tasks are what the checks and the per-layer
// cut count. A run finishes fewer than ten sweeps, so by the tail rule
// its tail is the slowest sweep.
var sweepWL = workload{
	name:     "sweep",
	why:      "the default experiment sweep and the K=2 fabric Do-All over it; lease, ledger and scheduling costs show here only",
	tailQ:    1,
	perRound: true,
	open:     openSweep,
}

// sweepWorkers is the fabric worker count K: one per core of the
// two-core reference host.
const sweepWorkers = 2

type sweepSession struct {
	e     *env
	spec  engine.SweepSpec
	count int // sweeps run, to name their ledger directories

	// traced holds the transports of the traced sweeps.
	traced []*stampTransport
	// serial is the single-process reference sweep's wall time.
	serial time.Duration
}

func openSweep(ctx context.Context, e *env) (session, error) {
	s := &sweepSession{e: e}
	if e.small {
		s.spec.Run = []string{"E1", "E4", "E13"}
	}
	// The warm-up op is the fabric entry point the CLI uses, on a
	// one-experiment sweep. One worker: a second would find nothing to
	// lease and sleep out a poll interval before seeing the sweep done.
	dir := filepath.Join(e.dir, fmt.Sprintf("sweep-setup-%d", e.setup))
	_, stats, err := fabric.RunSweep(ctx, engine.SweepSpec{Run: []string{"E1"}},
		fabric.RunSweepOptions{StateDir: dir, Workers: 1})
	if err != nil {
		return nil, err
	}
	if stats.Commits != 1 {
		return nil, fmt.Errorf("warm-up sweep committed %d tasks, want 1", stats.Commits)
	}
	return s, nil
}

// round runs one fabric sweep, assembled from the pieces fabric.RunSweep
// composes (Decompose, a Coordinator over a fresh ledger, K Workers,
// Assemble) with the workers speaking through a transport that stamps the
// lease protocol. Its makespan ends when the last result is committed.
func (s *sweepSession) round(ctx context.Context, tr *tracer) (round, error) {
	dir := filepath.Join(s.e.dir, fmt.Sprintf("sweep-%d", s.count))
	s.count++
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return round{}, err
	}
	start := time.Now()
	tasks, err := fabric.Decompose(s.spec)
	if err != nil {
		return round{}, err
	}
	coord, err := fabric.NewCoordinator(tasks, filepath.Join(dir, "ledger.jsonl"), fabric.Options{})
	if err != nil {
		return round{}, err
	}
	st := newStampTransport(coord, tr)
	var wg sync.WaitGroup
	for i := 0; i < sweepWorkers; i++ {
		w := &fabric.Worker{ID: fmt.Sprintf("w%d", i), Coord: st}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Run ends with an error only when ctx is canceled; the check
			// below finds any task that did not complete.
			_ = w.Run(ctx)
		}()
	}
	wg.Wait()
	stats := coord.Stats()
	res, err := fabric.Assemble(coord)
	if cerr := coord.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return round{}, err
	}

	r := round{ops: st.ops, wall: st.lastCommit.Sub(start)}
	tables := make(map[string]string)
	for _, x := range res.Experiments {
		tables[x.ID] = canonicalTables(x.Tables)
	}
	var bad error
	if stats.Commits != len(tasks) || stats.CacheHits != 0 || stats.Quarantined != 0 {
		bad = fmt.Errorf("fabric stats: %d of %d tasks executed, %d cache hits, %d quarantined; want all executed, none cached or quarantined",
			stats.Commits, len(tasks), stats.CacheHits, stats.Quarantined)
	}
	for i := range r.ops {
		o := &r.ops[i]
		o.class = experimentOf(o.key)
		o.out = tables[o.class]
		if o.err == nil {
			o.err = bad
		}
	}
	if tr != nil {
		s.traced = append(s.traced, st)
	}
	return r, nil
}

// experimentOf returns the experiment ID of a task key ("E6/scale=1").
func experimentOf(key string) string {
	id, _, _ := strings.Cut(key, "/")
	return id
}

// canonicalTables renders tables for comparison. E18 reports wall-clock
// times, which differ between any two sweeps; its timing columns are
// blanked.
func canonicalTables(tables []bench.Table) string {
	cp := make([]bench.Table, len(tables))
	for i, t := range tables {
		cp[i] = t
		if t.ID != "E18" {
			continue
		}
		rows := make([][]string, len(t.Rows))
		for j, row := range t.Rows {
			rows[j] = append([]string(nil), row...)
			for k, h := range t.Header {
				if k < len(row) && (strings.HasSuffix(h, " ms") || h == "step/batch") {
					rows[j][k] = ""
				}
			}
		}
		cp[i].Rows = rows
	}
	b, err := json.Marshal(cp)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return string(b)
}

// verify runs the single-process baseline sweep, ExecuteSweep with one
// point at a time, and compares every fabric sweep's tables with it. The
// machine's own counters, switched on here after the timed phase, give
// each experiment's completed work S.
func (s *sweepSession) verify(ctx context.Context, rounds []round) error {
	reg := s.e.reg
	if reg == nil {
		reg = obs.NewRegistry()
		pram.EnableObs(reg)
	}
	completed := func() int64 {
		v, _ := reg.Value(obs.MetricCompleted)
		return int64(v)
	}
	ref := make(map[string]string)
	work := make(map[string]int64)
	last := completed()
	spec := s.spec
	spec.Parallel = 1
	start := time.Now()
	_, err := engine.ExecuteSweep(ctx, spec, engine.SweepOptions{OnResult: func(ev engine.SweepEvent) {
		ref[ev.ID] = canonicalTables(ev.Tables)
		now := completed()
		work[ev.ID] = now - last
		last = now
	}})
	s.serial = time.Since(start)
	if err != nil {
		return fmt.Errorf("reference sweep: %w", err)
	}
	for _, r := range rounds {
		for i := range r.ops {
			o := &r.ops[i]
			o.work = work[o.class]
			if o.err == nil && o.out != ref[o.class] {
				o.err = fmt.Errorf("tables of %s differ from the single-process sweep's", o.class)
			}
		}
	}
	return nil
}

func (s *sweepSession) layerMetrics(rounds []round) map[string]float64 {
	m := make(map[string]float64)
	exec := make(map[string][]float64)
	var walls []float64
	for _, r := range rounds[1:] {
		walls = append(walls, r.wall.Seconds())
		for _, o := range r.ops {
			exec[o.class] = append(exec[o.class], o.layers["bench"].Seconds())
		}
	}
	for id, xs := range exec {
		m[experimentMetric(id)] = median(xs)
	}
	var lease, complete calls
	var idle time.Duration
	var heartbeats int
	for _, st := range s.traced {
		lease.N += st.lease.N
		lease.Ns += st.lease.Ns
		complete.N += st.complete.N
		complete.Ns += st.complete.Ns
		idle += st.idle
		heartbeats += st.heartbeats
	}
	n := float64(len(s.traced))
	m["fabric.lease_ns"] = ratio(lease.Ns, lease.N)
	m["fabric.complete_ns"] = ratio(complete.Ns, complete.N)
	m["fabric.idle_s"] = ratio(idle.Seconds(), n)
	m["fabric.heartbeats"] = ratio(float64(heartbeats), n)
	m["fabric.scaling_efficiency"] = ratio(s.serial.Seconds(), sweepWorkers*median(walls))
	return m
}

func (s *sweepSession) close() error { return nil }

// stampTransport is the workers' view of the coordinator: it forwards the
// lease protocol unchanged and stamps it, giving each task's latency
// (lease request to commit), the time the lease and commit calls take,
// heartbeats, and the time workers spend with nothing leasable. With a
// tracer it also records each task's spans.
type stampTransport struct {
	coord *fabric.Coordinator
	tr    *tracer

	mu         sync.Mutex
	leases     map[string]leaseStamp // by lease ID
	idleSince  map[string]time.Time  // by worker, while it has nothing leasable
	ops        []op
	lastCommit time.Time
	lease      calls
	complete   calls
	heartbeats int
	idle       time.Duration
}

type leaseStamp struct{ requested, granted time.Time }

func newStampTransport(c *fabric.Coordinator, tr *tracer) *stampTransport {
	return &stampTransport{coord: c, tr: tr, leases: make(map[string]leaseStamp), idleSince: make(map[string]time.Time)}
}

func (t *stampTransport) Lease(worker string) (fabric.LeaseReply, error) {
	start := time.Now()
	r, err := t.coord.Lease(worker)
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lease.add(end.Sub(start))
	if since, ok := t.idleSince[worker]; ok {
		t.idle += start.Sub(since)
		delete(t.idleSince, worker)
	}
	switch {
	case err != nil:
	case r.Task != nil:
		t.leases[r.LeaseID] = leaseStamp{start, end}
	case !r.Done:
		t.idleSince[worker] = end
	}
	return r, err
}

func (t *stampTransport) Heartbeat(leaseID string) error {
	err := t.coord.Heartbeat(leaseID)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.heartbeats++
	return err
}

func (t *stampTransport) Complete(leaseID, taskKey string, result json.RawMessage) error {
	start := time.Now()
	err := t.coord.Complete(leaseID, taskKey, result)
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.complete.add(end.Sub(start))
	ls := t.leases[leaseID]
	t.ops = append(t.ops, op{key: taskKey, lat: end.Sub(ls.requested), err: err, layers: map[string]time.Duration{
		"fabric": ls.granted.Sub(ls.requested) + end.Sub(start),
		"bench":  start.Sub(ls.granted),
	}})
	if end.After(t.lastCommit) {
		t.lastCommit = end
	}
	if t.tr != nil {
		id := t.tr.newOp()
		root := t.tr.span(id, 0, "fabric.task", ls.requested, end)
		t.tr.span(id, root, "fabric.lease", ls.requested, ls.granted)
		t.tr.span(id, root, "bench.experiment", ls.granted, start)
		t.tr.span(id, root, "fabric.complete", start, end)
	}
	return err
}

func (t *stampTransport) Fail(leaseID, taskKey, cause string) error {
	err := t.coord.Fail(leaseID, taskKey, cause)
	t.mu.Lock()
	defer t.mu.Unlock()
	ls := t.leases[leaseID]
	t.ops = append(t.ops, op{key: taskKey, lat: time.Since(ls.requested),
		err: fmt.Errorf("task failed: %s", cause)})
	return err
}
