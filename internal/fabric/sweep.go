package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/bench"
	"repro/internal/engine"
)

// RunSweepOptions configures a local fabric sweep: an in-process
// worker pool over a durable ledger. The pool runs the CLI's
// (`cmd/experiments -fabric N`) and the job service's sweeps; external
// workers (cmd/pramw) use a served Coordinator.Handler instead.
type RunSweepOptions struct {
	// StateDir holds the ledger (StateDir/ledger.jsonl). Required:
	// durability is the fabric's reason to exist.
	StateDir string
	// Workers is the sweep's parallelism (<= 0 selects GOMAXPROCS),
	// split between in-process workers and their tasks' points.
	Workers int
	// Fresh discards an existing ledger instead of resuming from it.
	// The default resumes: committed results are cache hits, which is
	// the fabric's recovery story.
	Fresh bool
	// Coordinator tunes leases, retries, and quarantine.
	Coordinator Options
	// Logf receives coordinator and worker notices; nil discards them.
	Logf func(format string, args ...any)
	// OnCommit, if non-nil, observes each executed task right after the
	// coordinator commits its result; cache hits never reach it. It
	// runs on the committing worker's goroutine, one call at a time.
	OnCommit func(Task)
}

// RunSweep runs spec as a Do-All instance on an in-process worker
// pool and merges the committed results into the same shape
// engine.ExecuteSweep produces — bit-identical tables, in registry
// order — plus the coordinator's accounting. Quarantined tasks
// degrade to an error-only table, mirroring how a failed sweep point
// degrades to a Table.Errors row.
func RunSweep(ctx context.Context, spec engine.SweepSpec, opt RunSweepOptions) (engine.SweepResult, Stats, error) {
	var zero engine.SweepResult
	tasks, err := Decompose(spec)
	if err != nil {
		return zero, Stats{}, err
	}
	if opt.StateDir == "" {
		return zero, Stats{}, fmt.Errorf("fabric: RunSweep needs a state dir")
	}
	if err := os.MkdirAll(opt.StateDir, 0o755); err != nil {
		return zero, Stats{}, fmt.Errorf("fabric: create state dir: %w", err)
	}
	ledgerPath := filepath.Join(opt.StateDir, "ledger.jsonl")
	if opt.Fresh {
		if err := os.Remove(ledgerPath); err != nil && !os.IsNotExist(err) {
			return zero, Stats{}, fmt.Errorf("fabric: clear ledger: %w", err)
		}
	}
	opt.Coordinator.Logf = opt.Logf
	coord, err := NewCoordinator(tasks, ledgerPath, opt.Coordinator)
	if err != nil {
		return zero, Stats{}, err
	}
	defer coord.Close()

	workers, parallel := poolSize(opt.Workers, coord.Stats().Pending)
	var tr Transport = coord
	if opt.OnCommit != nil {
		tr = &notifier{Coordinator: coord, onCommit: opt.OnCommit}
	}
	// The first worker to see the Do-All done stops the pool: the
	// others may be sleeping out a retry interval of LeaseTTL/4.
	pool, stop := context.WithCancel(ctx)
	defer stop()
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		w := &Worker{ID: fmt.Sprintf("local-%d", i), Coord: tr, Logf: opt.Logf, parallel: parallel}
		go func() {
			defer wg.Done()
			if w.Run(pool) == nil {
				stop()
			}
		}()
	}
	wg.Wait()
	stats := coord.Stats()
	if err := ctx.Err(); err != nil {
		return zero, stats, fmt.Errorf("fabric: sweep interrupted: %w (committed results are kept; re-running resumes from the ledger)", err)
	}
	res, err := Assemble(coord)
	return res, stats, err
}

// poolSize splits a parallelism budget (<= 0: GOMAXPROCS) into
// in-process workers, at most one per pending task however large the
// budget, and the points each worker's task runs at once.
func poolSize(budget, pending int) (workers, parallel int) {
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(budget, pending))
	return workers, max(1, budget/workers)
}

// notifier is the in-process workers' transport when RunSweep has an
// OnCommit callback: the coordinator itself, with each fresh commit
// reported after the coordinator has recorded it.
type notifier struct {
	*Coordinator
	mu       sync.Mutex
	onCommit func(Task)
}

// Complete implements Transport.
func (n *notifier) Complete(leaseID, taskKey string, result json.RawMessage) error {
	t, err := n.commit(leaseID, taskKey, result)
	if t != nil {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.onCommit(*t)
	}
	return err
}

// Assemble merges a finished coordinator's committed results into an
// engine.SweepResult, in task-list (registry) order. Committed tables
// are decoded verbatim (so a fabric sweep's JSON equals an
// uninterrupted ExecuteSweep's), and a quarantined task contributes an
// error-only table counted as one degraded point.
func Assemble(c *Coordinator) (engine.SweepResult, error) {
	var res engine.SweepResult
	quarantined := c.Quarantined()
	for _, t := range c.Tasks() {
		if raw, ok := c.Result(t.Key); ok {
			var tables []bench.Table
			if err := json.Unmarshal(raw, &tables); err != nil {
				return res, fmt.Errorf("fabric: decode result for %s: %w", t.Key, err)
			}
			for i := range tables {
				res.Degraded += len(tables[i].Errors)
			}
			res.Experiments = append(res.Experiments, engine.SweepExperiment{ID: t.Experiment.ID, Tables: tables})
			res.Ran++
			continue
		}
		cause, ok := quarantined[t.Key]
		if !ok {
			return res, fmt.Errorf("fabric: task %s neither committed nor quarantined; the Do-All is not finished", t.Key)
		}
		res.Experiments = append(res.Experiments, engine.SweepExperiment{
			ID:     t.Experiment.ID,
			Tables: []bench.Table{{ID: t.Experiment.ID, Title: experimentTitle(t.Experiment.ID), Errors: []string{cause}}},
		})
		res.Ran++
		res.Degraded++
	}
	return res, nil
}

// experimentTitle looks up the registry title for a quarantined
// placeholder table.
func experimentTitle(id string) string {
	for _, e := range bench.All() {
		if e.ID == id {
			return e.Title
		}
	}
	return id
}
