package engine

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
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
	// Replayed reports that the tables came verbatim from the sweep
	// journal rather than a fresh run.
	Replayed bool `json:"replayed,omitempty"`
}

// SweepEvent is delivered to SweepOptions.OnResult as each experiment
// finishes (or replays), in registry order.
type SweepEvent struct {
	SweepExperiment
	// Elapsed is the wall-clock time of a fresh run (zero for a
	// replay). It is an observation, not part of the result — two
	// sweeps with identical tables will differ here.
	Elapsed time.Duration `json:"-"`
}

// SweepOptions carries per-invocation wiring for ExecuteSweep.
type SweepOptions struct {
	// OnResult, if non-nil, observes each experiment as it completes,
	// in order — the CLI renders tables from it, the job service
	// streams progress. It runs on the sweep goroutine; a slow callback
	// slows the sweep.
	OnResult func(SweepEvent)
	// Warnf receives degradation notices (a failed journal write). Nil
	// prints to stderr, matching the historical CLI behavior.
	Warnf func(format string, args ...any)
}

func (o SweepOptions) warnf(format string, args ...any) {
	if o.Warnf != nil {
		o.Warnf(format, args...)
		return
	}
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// SweepResult is the outcome of one experiment sweep.
type SweepResult struct {
	// Experiments holds every finished experiment in registry order.
	Experiments []SweepExperiment `json:"experiments"`
	// Ran counts experiments that produced tables (fresh or replayed);
	// Degraded counts sweep points that degraded to error rows.
	Ran      int `json:"ran"`
	Degraded int `json:"degraded,omitempty"`
}

// ExecuteSweep validates spec and drives the experiment sweep the way
// cmd/experiments always has: journaled experiments replay verbatim on
// resume, a fresh sweep clears any stale journal, an interrupt keeps
// every journaled experiment and returns a resumable error, and failed
// sweep points degrade to Table.Errors rows instead of aborting.
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
	sweep := bench.Sweep{Scale: scale(spec.Full), Parallel: spec.Parallel, Deadline: spec.Deadline}
	if sweep.Parallel <= 0 {
		sweep.Parallel = runtime.GOMAXPROCS(0)
	}

	var journal *bench.Journal
	if spec.CheckpointDir != "" {
		if err := os.MkdirAll(spec.CheckpointDir, 0o755); err != nil {
			return res, fmt.Errorf("create checkpoint dir: %w", err)
		}
		path := filepath.Join(spec.CheckpointDir, "journal.jsonl")
		if !spec.Resume {
			// A fresh sweep must not inherit a previous run's journal.
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return res, fmt.Errorf("clear journal: %w", err)
			}
		}
		journal, err = bench.OpenJournal(path)
		if err != nil {
			return res, err
		}
		defer journal.Close()
	}

	emit := func(ev SweepEvent) {
		res.Experiments = append(res.Experiments, ev.SweepExperiment)
		res.Ran++
		if opt.OnResult != nil {
			opt.OnResult(ev)
		}
	}

	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			// Interrupted: everything journaled so far is already synced;
			// return a resumable error so the driver knows the sweep is
			// partial.
			return res, fmt.Errorf("sweep interrupted before %s: %w (journaled experiments are kept; rerun with -resume)", id, err)
		}
		key := ExperimentKey(id, spec.Full)
		if journal != nil {
			var tables []bench.Table
			if ok, err := journal.Get(key, &tables); err != nil {
				return res, err
			} else if ok {
				emit(SweepEvent{SweepExperiment: SweepExperiment{ID: id, Tables: tables, Replayed: true}})
				continue
			}
		}
		start := time.Now()
		tables, err := runExperiment(ctx, id, sweep)
		if err != nil {
			return res, err
		}
		interrupted := ctx.Err() != nil
		for i := range tables {
			res.Degraded += len(tables[i].Errors)
		}
		if journal != nil && !interrupted {
			// A journal entry asserts "this experiment finished"; an
			// interrupted run's tables are partial, so they must re-run
			// on resume rather than replay. A failed Put degrades the
			// journal (this experiment re-runs on resume), not the sweep.
			if err := journal.Put(key, tables); err != nil {
				opt.warnf("warning: %v (%s will re-run on -resume)", err, id)
			}
		}
		emit(SweepEvent{SweepExperiment: SweepExperiment{ID: id, Tables: tables}, Elapsed: time.Since(start)})
		if interrupted {
			return res, fmt.Errorf("sweep interrupted during %s: %w (partial tables above; rerun with -resume)", id, ctx.Err())
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

// ExperimentKey names one experiment at one scale, "<ID>/scale=<N>": the
// sweep journal's key and the fabric's task key. Journals and fabric
// ledgers written earlier depend on its bytes.
func ExperimentKey(id string, full bool) string {
	return fmt.Sprintf("%s/scale=%d", id, scale(full))
}

func scale(full bool) bench.Scale {
	if full {
		return bench.Full
	}
	return bench.Quick
}

// RunExperiment runs one registered experiment at the given scale and
// returns its tables. It runs the points one at a time with no point
// deadline, so concurrent callers — fabric workers sharing a process —
// each get the same tables a sweep at any setting produces.
func RunExperiment(ctx context.Context, id string, full bool) ([]bench.Table, error) {
	tables, err := runExperiment(ctx, id, bench.Sweep{Scale: scale(full)})
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
