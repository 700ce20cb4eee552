package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/bench"
	"repro/internal/engine"
)

// RunSweepOptions configures a local fabric sweep: an in-process
// worker pool over a durable ledger. The pool exists for the CLI
// (`cmd/experiments -fabric N`) and for tests; external workers
// (cmd/pramw) use a served Coordinator.Handler instead.
type RunSweepOptions struct {
	// StateDir holds the ledger (StateDir/ledger.jsonl). Required:
	// durability is the fabric's reason to exist.
	StateDir string
	// Workers is the in-process worker count (default 3).
	Workers int
	// Fresh discards an existing ledger instead of resuming from it.
	// The default resumes: committed results are cache hits, which is
	// the fabric's recovery story.
	Fresh bool
	// Coordinator tunes leases, retries, and quarantine.
	Coordinator Options
	// Logf receives coordinator and worker notices; nil discards them.
	Logf func(format string, args ...any)
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

	workers := opt.Workers
	if workers <= 0 {
		workers = 3
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		w := &Worker{ID: fmt.Sprintf("local-%d", i), Coord: coord, Logf: opt.Logf}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
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
