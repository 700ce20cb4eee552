// Command pramd is the harness's run-service daemon: a checkpoint-backed
// job queue over HTTP. Clients submit engine specs (Write-All runs,
// experiment sweeps, robust PRAM simulations) as JSON, watch their event
// streams live over SSE, and fetch results; the daemon persists every
// job under its state directory, so a crash or restart loses no work —
// interrupted jobs resume from their checkpoints (a sweep job from its
// fabric ledger), the same fail-stop/restart discipline the paper's
// algorithms run under.
//
// Usage:
//
//	pramd -state-dir /var/lib/pramd
//	curl -X POST localhost:7421/v1/jobs -d '{"kind":"run","run":{"algorithm":"X","adversary":"random","n":1024}}'
//	curl localhost:7421/v1/jobs/j000000/events   # SSE stream
//	curl localhost:7421/v1/jobs/j000000/result
//
// On SIGINT/SIGTERM the daemon drains gracefully: running jobs are
// interrupted at a tick boundary, checkpointed, and persisted back to
// the queue, then the process exits 0. The next start picks them up.
//
// The listener binds localhost by default; pass an explicit host to
// expose the daemon (it has no authentication — front it with something
// that does before routing other machines to it).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/pram"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pramd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:7421", "HTTP listen address (a bare :port binds localhost)")
		stateDir  = fs.String("state-dir", "pramd.state", "job state directory (created if missing)")
		workers   = fs.Int("workers", 2, "jobs executed concurrently")
		drain     = fs.Duration("drain", 30*time.Second, "graceful-shutdown budget: running jobs are checkpointed and re-queued within this window")
		debugAddr = fs.String("debug-addr", "", "serve expvar and pprof on this extra address (the main listener already serves /metrics)")

		fabricSweep = fs.String("fabric-sweep", "", "also serve a fabric Do-All coordinator for these experiment IDs (comma-separated; \"all\" = every experiment; empty = fabric off); workers are pramw processes")
		fabricFull  = fs.Bool("fabric-full", false, "fabric sweep at full scale")
		fabricState = fs.String("fabric-state", "", "fabric ledger directory (default <state-dir>/fabric)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := obs.Default()
	pram.EnableObs(reg)
	bench.EnableObs(reg)
	jobs.EnableObs(reg)
	obs.CollectFaultInject(reg)

	store, err := jobs.Open(*stateDir, jobs.Options{Workers: *workers, Logf: log.Printf})
	if err != nil {
		return err
	}

	if *debugAddr != "" {
		dbg, err := obs.Serve(*debugAddr, reg)
		if err != nil {
			return err
		}
		defer dbg.Close()
		log.Printf("pramd: debug server on http://%s", dbg.Addr())
	}

	handler := NewServer(store, reg)
	if *fabricSweep != "" {
		fabric.EnableObs(reg)
		spec := engine.SweepSpec{Full: *fabricFull}
		if *fabricSweep != "all" {
			spec.Run = strings.Split(*fabricSweep, ",")
		}
		tasks, err := fabric.Decompose(spec)
		if err != nil {
			return err
		}
		dir := *fabricState
		if dir == "" {
			dir = filepath.Join(*stateDir, "fabric")
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("create fabric state dir: %w", err)
		}
		coord, err := fabric.NewCoordinator(tasks, filepath.Join(dir, "ledger.jsonl"), fabric.Options{Logf: log.Printf})
		if err != nil {
			return err
		}
		defer coord.Close()
		handler.Mount("/v1/fabric/", coord.Handler())
		stats := coord.Stats()
		log.Printf("pramd: fabric coordinator serving %d tasks (%d already committed) from ledger %s",
			stats.Tasks, stats.Done, filepath.Join(dir, "ledger.jsonl"))
	}

	ln, err := net.Listen("tcp", listenAddr(*addr))
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: handler}
	log.Printf("pramd: serving on http://%s (state in %s, %d workers)", ln.Addr(), *stateDir, *workers)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: park running jobs back in the queue (the store's
	// Close checkpoints them via the engine's cancel path), close SSE
	// streams (hub close ends the handlers), then stop the listener.
	log.Printf("pramd: shutting down; draining jobs (budget %v)", *drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := store.Close(shutCtx); err != nil {
		srv.Close()
		return err
	}
	if err := srv.Shutdown(shutCtx); err != nil {
		srv.Close()
	}
	log.Printf("pramd: drained; state persisted in %s", *stateDir)
	return nil
}

// listenAddr binds bare ":port" addresses to localhost, so the daemon
// is never exposed beyond the machine by default.
func listenAddr(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "127.0.0.1" + addr
	}
	return addr
}
