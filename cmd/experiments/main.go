// Command experiments regenerates the paper's evaluation: one table per
// theorem/lemma/corollary/example, as indexed in DESIGN.md and recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-run E6[,E9,...]] [-full]
//	experiments -fabric 3                    # Do-All sweep on 3 crash-tolerant workers
//	experiments -fabric 1 -fabric-state DIR  # resumable sweep: re-run only unfinished experiments
//	experiments -lab 128 -lab-p 8 -lab-search 32 -lab-journal lab.jsonl
//
// With -lab N the command runs the adversary strategy lab instead of
// the sweep: every hand-written adversary, the built-in DSL portfolio,
// and any -lab-strategies file enter a tournament against the bracket
// algorithms (-lab-algs), rendered as one σ-frontier table per
// algorithm; -lab-search then runs the seeded random strategy search
// per algorithm and prints each winner's canonical replay spec, which
// feeds back in through -lab-strategies. See internal/advlab.
//
// With -fabric N the sweep runs as a Do-All instance on the
// distributed fabric (internal/fabric): in-process workers pull
// experiment tasks under leases, and results commit at-most-once to the
// fsync'd ledger in -fabric-state. The ledger is the sweep's
// checkpoint: a re-run of the same sweep serves every committed
// experiment from it (cache hits) and runs only the missing ones,
// unless -fabric-fresh discards it. The output is bit-identical to a
// plain sweep but prints only when every task is resolved, without
// timings (an interrupted run prints nothing; the ledger keeps its
// commits). N is the sweep's parallelism, split between experiments
// and their points; tasks carry -deadline; -parallel is ignored. Cache
// hits need a code version: PRAM_CODE_VERSION, or the VCS stamp of a
// binary built from an unmodified checkout. Without one (go run, or a
// build of an edited tree) the ledger records no results and every
// experiment runs again.
//
// Without -run it executes every experiment; -full uses the (slower) sizes
// recorded in EXPERIMENTS.md instead of the quick ones.
//
// An interrupt (SIGINT/SIGTERM) stops the sweep at the next tick
// boundary: in-flight points drain as canceled, a fabric ledger keeps
// every experiment committed before the signal (each entry is synced as
// it is written), and the process exits nonzero. -deadline bounds each
// sweep point's wall-clock time, so a hung point degrades to an error
// row instead of wedging the sweep. Fault injection in the harness's own
// I/O is controlled by the PRAM_FAULTS / PRAM_FAULT_SEED environment
// variables (see internal/faultinject).
//
// The command is a thin client of internal/engine: flags parse into an
// engine.SweepSpec, engine.ExecuteSweep (or fabric.RunSweep) drives the
// experiment registry, and this file only renders tables.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/advlab"
	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/pram"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// cliOptions holds the flags that configure the process rather than the
// sweep: rendering and the observability surface.
type cliOptions struct {
	format    string
	debugAddr string
	progress  time.Duration
	// fabricWorkers > 0 runs the sweep as a Do-All instance on the
	// distributed fabric (internal/fabric) with that much in-process
	// parallelism; fabricState holds the ledger, fabricFresh discards it.
	fabricWorkers int
	fabricState   string
	fabricFresh   bool
	// lab holds the adversary-strategy-lab spec; labStrategies names an
	// optional JSON file of extra DSL strategies entered alongside the
	// built-in grid. lab.N > 0 selects the lab instead of the sweep.
	lab           advlab.LabSpec
	labAlgs       string
	labStrategies string
}

// parseSpec maps the flag surface onto an engine.SweepSpec plus the
// process-level options; the spec's own Validate (inside ExecuteSweep)
// does the semantic checks.
func parseSpec(args []string) (engine.SweepSpec, cliOptions, error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var spec engine.SweepSpec
	var opts cliOptions
	only := fs.String("run", "", "comma-separated experiment IDs (e.g. E1,E6); empty means all")
	fs.StringVar(&opts.format, "format", "text", "output format: text or markdown")
	fs.StringVar(&opts.debugAddr, "debug-addr", "", "serve /metrics, expvar and /debug/pprof on this address for the duration of the sweep (a bare :port binds localhost; empty disables)")
	fs.DurationVar(&opts.progress, "progress", 0, "print a live progress line (points done, degraded, tick rate) to stderr at this interval, e.g. 2s (0 disables)")
	fs.BoolVar(&spec.Full, "full", false, "use the full sizes recorded in EXPERIMENTS.md")
	fs.IntVar(&spec.Parallel, "parallel", 1, "sweep points evaluated concurrently (0 = GOMAXPROCS); output is identical at any setting")
	fs.DurationVar(&spec.Deadline, "deadline", 0, "wall-clock budget per sweep point; overrunning points degrade to error rows (0 disables)")
	fs.IntVar(&opts.fabricWorkers, "fabric", 0, "run the sweep on the crash-tolerant fabric with this much in-process parallelism (0 = off); committed experiments in the ledger are cache hits on re-run, so an interrupted sweep resumes")
	fs.StringVar(&opts.fabricState, "fabric-state", "fabric.state", "fabric ledger directory (with -fabric)")
	fs.BoolVar(&opts.fabricFresh, "fabric-fresh", false, "discard an existing fabric ledger instead of resuming from it (with -fabric)")
	fs.IntVar(&opts.lab.N, "lab", 0, "run the adversary strategy lab at this Write-All size instead of the sweep (0 = off)")
	fs.IntVar(&opts.lab.P, "lab-p", 0, "lab processor count (0 = N)")
	fs.IntVar(&opts.lab.MaxTicks, "lab-ticks", 1<<14, "lab tick budget per match (0 = machine default)")
	fs.StringVar(&opts.labAlgs, "lab-algs", "", "comma-separated lab bracket algorithms (empty = X,V,combined)")
	fs.Int64Var(&opts.lab.Seed, "lab-seed", 1, "lab seed: feeds seed-taking algorithms, the random baseline, and the strategy search")
	fs.IntVar(&opts.lab.SearchIters, "lab-search", 0, "run the strategy search for this many iterations per bracket algorithm after the tournament (0 = off)")
	fs.StringVar(&opts.lab.JournalPath, "lab-journal", "", "journal search iterations to this file so an interrupted search resumes bit-identically")
	fs.StringVar(&opts.labStrategies, "lab-strategies", "", "JSON file of extra DSL strategies (one object or an array) entered in the tournament")
	if err := fs.Parse(args); err != nil {
		return spec, opts, err
	}
	// Split-then-join is the identity, so the engine's "no experiments
	// matched -run=%q" error echoes the flag exactly as typed.
	spec.Run = strings.Split(*only, ",")
	return spec, opts, nil
}

func run(ctx context.Context, args []string) error {
	spec, opts, err := parseSpec(args)
	if err != nil {
		return err
	}

	if opts.debugAddr != "" || opts.progress > 0 {
		reg := obs.Default()
		pram.EnableObs(reg)
		bench.EnableObs(reg)
		fabric.EnableObs(reg)
		advlab.EnableObs(reg)
		obs.CollectFaultInject(reg)
		if opts.debugAddr != "" {
			srv, err := obs.Serve(opts.debugAddr, reg)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "debug server: http://%s/metrics (expvar at /debug/vars, pprof at /debug/pprof/)\n", srv.Addr())
		}
		if opts.progress > 0 {
			p := obs.StartProgress(reg, os.Stderr, opts.progress)
			defer p.Stop()
		}
	}

	render := func(t *bench.Table) {
		switch opts.format {
		case "markdown", "md":
			t.RenderMarkdown(os.Stdout)
		default:
			t.Render(os.Stdout)
		}
	}

	if opts.lab.N > 0 {
		return runLab(ctx, opts, render)
	}

	if opts.fabricWorkers > 0 {
		res, stats, err := fabric.RunSweep(ctx, spec, fabric.RunSweepOptions{
			StateDir: opts.fabricState,
			Workers:  opts.fabricWorkers,
			Fresh:    opts.fabricFresh,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		for _, e := range res.Experiments {
			for i := range e.Tables {
				render(&e.Tables[i])
			}
		}
		fmt.Fprintf(os.Stderr, "fabric: %d task(s): %d executed, %d cache hit(s), %d retried, %d quarantined (%d duplicate commit(s) suppressed)\n",
			stats.Tasks, stats.Commits, stats.CacheHits, stats.Retries, stats.Quarantined, stats.DuplicateCommits)
		if res.Degraded > 0 {
			fmt.Fprintf(os.Stderr, "note: %d sweep point(s) degraded to errors (reported inline above)\n", res.Degraded)
		}
		return nil
	}

	res, err := engine.ExecuteSweep(ctx, spec, engine.SweepOptions{
		OnResult: func(ev engine.SweepEvent) {
			for i := range ev.Tables {
				render(&ev.Tables[i])
			}
			if opts.format == "text" {
				fmt.Printf("  [%s took %v]\n\n", ev.ID, ev.Elapsed.Round(time.Millisecond))
			}
		},
	})
	if err != nil {
		return err
	}
	if res.Degraded > 0 {
		fmt.Fprintf(os.Stderr, "note: %d sweep point(s) degraded to errors (reported inline above)\n", res.Degraded)
	}
	return nil
}

// runLab executes the adversary strategy lab: a tournament sweeping
// strategies × algorithms, then (with -lab-search) the per-algorithm
// strategy search. Frontier tables render like sweep tables; each
// search winner prints with its canonical replay spec, which feeds
// straight back in through -lab-strategies.
func runLab(ctx context.Context, opts cliOptions, render func(*bench.Table)) error {
	spec := opts.lab
	if opts.labAlgs != "" {
		spec.Algorithms = strings.Split(opts.labAlgs, ",")
	}
	if opts.labStrategies != "" {
		data, err := os.ReadFile(opts.labStrategies)
		if err != nil {
			return fmt.Errorf("-lab-strategies: %w", err)
		}
		spec.Strategies, err = advlab.ParseStrategies(data)
		if err != nil {
			return fmt.Errorf("-lab-strategies %s: %w", opts.labStrategies, err)
		}
	}
	res, err := advlab.ExecuteLab(ctx, spec)
	if err != nil {
		return err
	}
	for i := range res.Frontiers {
		render(&res.Frontiers[i])
	}
	for _, sr := range res.Searches {
		fmt.Printf("search[%s]: best σ=%.3f after %d iteration(s) (%d replayed, %d improving): %s\n",
			sr.Algorithm, sr.BestSigma, sr.Iters, sr.Replayed, sr.Improved, advlab.MustCompile(sr.Best).Name())
		fmt.Printf("  replay spec: %s\n", sr.Best.Canonical())
	}
	return nil
}
