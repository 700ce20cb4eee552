package engine

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
)

// SweepExperiment is one experiment's outcome within a sweep.
type SweepExperiment struct {
	// ID is the experiment identifier (e.g. "E6").
	ID string `json:"id"`
	// Tables holds the experiment's rendered result tables.
	Tables []bench.Table `json:"tables"`
}

// SweepEvent is delivered to SweepOptions.OnResult as each experiment
// finishes, in registry order.
type SweepEvent struct {
	SweepExperiment
	// Elapsed is the experiment's wall-clock time. It is an
	// observation, not part of the result — two sweeps with identical
	// tables will differ here.
	Elapsed time.Duration `json:"-"`
}

// SweepOptions carries per-invocation wiring for ExecuteSweep.
type SweepOptions struct {
	// OnResult, if non-nil, observes each experiment as it completes,
	// in order — the CLI renders tables from it. It runs on the sweep
	// goroutine; a slow callback slows the sweep.
	OnResult func(SweepEvent)
}

// SweepResult is the outcome of one experiment sweep.
type SweepResult struct {
	// Experiments holds every finished experiment in registry order.
	Experiments []SweepExperiment `json:"experiments"`
	// Ran counts experiments that produced tables; Degraded counts
	// sweep points that degraded to error rows.
	Ran      int `json:"ran"`
	Degraded int `json:"degraded,omitempty"`
}

// ExecuteSweep validates spec and runs the experiment sweep in memory,
// one experiment after another in registry order. Failed sweep points
// degrade to Table.Errors rows instead of aborting, and an interrupt
// returns the experiments finished so far with an error. A sweep that
// must survive its process runs on the fabric (fabric.RunSweep), whose
// ledger keeps every finished experiment.
//
// The spec's parallelism and point deadline apply to this sweep alone,
// so concurrent sweeps in one process stay independent.
func ExecuteSweep(ctx context.Context, spec SweepSpec, opt SweepOptions) (SweepResult, error) {
	var res SweepResult
	if err := spec.Validate(); err != nil {
		return res, err
	}
	ids, err := spec.ExperimentIDs()
	if err != nil {
		return res, err
	}
	sweep := bench.Sweep{Scale: Scale(spec.Full), Parallel: spec.Parallel, Deadline: spec.Deadline}
	if sweep.Parallel <= 0 {
		sweep.Parallel = runtime.GOMAXPROCS(0)
	}
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("sweep interrupted before %s: %w", id, err)
		}
		start := time.Now()
		tables, err := runExperiment(ctx, id, sweep)
		if err != nil {
			return res, err
		}
		interrupted := ctx.Err()
		for i := range tables {
			res.Degraded += len(tables[i].Errors)
		}
		ev := SweepEvent{SweepExperiment: SweepExperiment{ID: id, Tables: tables}, Elapsed: time.Since(start)}
		res.Experiments = append(res.Experiments, ev.SweepExperiment)
		res.Ran++
		if opt.OnResult != nil {
			opt.OnResult(ev)
		}
		if interrupted != nil {
			return res, fmt.Errorf("sweep interrupted during %s: %w (partial tables above)", id, interrupted)
		}
	}
	return res, nil
}

// ExperimentIDs resolves the spec's Run filter against the registry and
// returns the selected experiment IDs in registry order. An empty
// filter selects every experiment; a filter that matches nothing
// returns the same "no experiments matched" error as ExecuteSweep.
func (s SweepSpec) ExperimentIDs() ([]string, error) {
	want := make(map[string]bool)
	for _, id := range s.Run {
		if id = strings.TrimSpace(id); id != "" {
			want[strings.ToUpper(id)] = true
		}
	}
	all := bench.All()
	var ids []string
	for _, e := range all {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		ids = append(ids, e.ID)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no experiments matched -run=%q; known IDs are E1..%s",
			strings.Join(s.Run, ","), all[len(all)-1].ID)
	}
	return ids, nil
}

// Scale maps a spec's Full setting to its bench scale.
func Scale(full bool) bench.Scale {
	if full {
		return bench.Full
	}
	return bench.Quick
}

// RunExperiment runs one registered experiment at the given scale and
// point deadline (0 disables it), up to parallel points at once, and
// returns its tables, which no parallelism changes.
func RunExperiment(ctx context.Context, id string, full bool, parallel int, deadline time.Duration) ([]bench.Table, error) {
	tables, err := runExperiment(ctx, id, bench.Sweep{Scale: Scale(full), Parallel: parallel, Deadline: deadline})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return tables, fmt.Errorf("experiment %s interrupted: %w", id, err)
	}
	return tables, nil
}

// runExperiment looks id up in the registry and runs it with the
// sweep's settings.
func runExperiment(ctx context.Context, id string, s bench.Sweep) ([]bench.Table, error) {
	for _, e := range bench.All() {
		if e.ID == id {
			tables := e.Run(ctx, s)
			bench.ExperimentDone()
			return tables, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q", id)
}
