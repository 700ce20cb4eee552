package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
)

// Transport is the worker's view of a coordinator: the four verbs of
// the lease protocol. The Coordinator implements it directly (local
// process pool); Client implements it over cmd/pramd's HTTP surface.
type Transport interface {
	// Lease requests a task under a fresh lease.
	Lease(workerID string) (LeaseReply, error)
	// Heartbeat extends the lease; ErrLeaseExpired voids the claim.
	Heartbeat(leaseID string) error
	// Complete commits the task's result (at-most-once on the
	// coordinator side).
	Complete(leaseID, taskKey string, result json.RawMessage) error
	// Fail reports a failed execution attempt.
	Fail(leaseID, taskKey, cause string) error
}

// Failpoint names of the worker's chaos surface (see
// internal/faultinject). Arm them via PRAM_FAULTS or a swapped-in
// registry.
const (
	// WorkerKillPoint simulates SIGKILL: when it fires — consulted
	// right after a lease is granted and again right before the result
	// is reported — the worker abandons the lease without a word, as a
	// killed process would, and its next loop iteration plays the part
	// of the restarted incarnation.
	WorkerKillPoint = "fabric.worker.kill"
	// HeartbeatDropPoint silently discards an outgoing heartbeat, so
	// the lease expires under a worker that is still executing — the
	// reassignment/late-completion race the at-most-once commit must
	// win.
	HeartbeatDropPoint = "fabric.heartbeat.drop"
)

// Worker pulls tasks from a coordinator and executes them through the
// engine layer until the coordinator reports the Do-All complete. It
// is deliberately stateless: every durable fact lives in the
// coordinator's ledger, so a worker can be killed and replaced at any
// instant. cmd/pramw wraps one Worker per process; RunSweep runs
// several in-process.
type Worker struct {
	// ID names the worker in leases and logs.
	ID string
	// Coord is the coordinator connection.
	Coord Transport
	// Poll is the idle re-poll interval (default 25ms), used when the
	// coordinator has nothing leasable or is unreachable.
	Poll time.Duration
	// Logf receives worker notices; nil discards them.
	Logf func(format string, args ...any)
	// parallel is how many points a task runs at once (RunSweep's share).
	parallel int
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Run pulls and executes tasks until the coordinator reports Done
// (returns nil) or ctx is canceled (returns the context error).
// Transport errors — the coordinator restarting — are absorbed with a
// poll-interval retry: a restartable coordinator is part of the fault
// model, not a reason to die.
func (w *Worker) Run(ctx context.Context) error {
	poll := w.Poll
	if poll <= 0 {
		poll = 25 * time.Millisecond
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		reply, err := w.Coord.Lease(w.ID)
		if err != nil {
			w.logf("fabric: worker %s: lease request failed (%v); retrying", w.ID, err)
			if !sleepCtx(ctx, poll) {
				return ctx.Err()
			}
			continue
		}
		if reply.Done {
			return nil
		}
		if reply.Task == nil {
			wait := reply.RetryAfter
			if wait <= 0 {
				wait = poll
			}
			if !sleepCtx(ctx, wait) {
				return ctx.Err()
			}
			continue
		}
		w.execute(ctx, reply)
	}
}

// execute runs one leased task to a report (Complete/Fail) or an
// abandonment (simulated kill, lost lease, canceled ctx).
func (w *Worker) execute(ctx context.Context, r LeaseReply) {
	kill := faultinject.Active().Point(WorkerKillPoint)
	if kill.Fire() {
		w.logf("fabric: worker %s killed holding lease %s (simulated)", w.ID, r.LeaseID)
		return
	}

	// Heartbeat until the execution settles. A dropped heartbeat (the
	// failpoint) or a coordinator restart can void the lease mid-run;
	// the pump then cancels the execution and the worker abandons the
	// task — the coordinator has already rescheduled it.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var leaseLost atomic.Bool
	hbEvery := r.TTL / 3
	if hbEvery <= 0 {
		hbEvery = time.Second
	}
	done := make(chan struct{})
	var pump sync.WaitGroup
	pump.Add(1)
	go func() {
		defer pump.Done()
		drop := faultinject.Active().Point(HeartbeatDropPoint)
		ticker := time.NewTicker(hbEvery)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-runCtx.Done():
				return
			case <-ticker.C:
			}
			if drop.Fire() {
				w.logf("fabric: worker %s dropped a heartbeat for lease %s (simulated)", w.ID, r.LeaseID)
				continue
			}
			if err := w.Coord.Heartbeat(r.LeaseID); errors.Is(err, ErrLeaseExpired) {
				leaseLost.Store(true)
				cancel()
				return
			}
			// Other errors (coordinator restarting) are retried on the
			// next tick; the lease may expire meanwhile, which the
			// protocol absorbs.
		}
	}()

	result, err := w.runTask(runCtx, *r.Task)
	close(done)
	pump.Wait()

	switch {
	case ctx.Err() != nil:
		// Shutting down: leave the lease to expire.
	case leaseLost.Load():
		// The claim is void and the task rescheduled; a completed
		// result would still be offered below, but a canceled partial
		// one must not be.
		if err == nil {
			w.report(r, result, nil)
		}
	case err != nil:
		w.report(r, nil, err)
	default:
		if kill.Fire() {
			w.logf("fabric: worker %s killed before reporting lease %s (simulated)", w.ID, r.LeaseID)
			return
		}
		w.report(r, result, nil)
	}
}

// report delivers the execution outcome; transport failures are logged
// and absorbed (lease expiry reschedules the task).
func (w *Worker) report(r LeaseReply, result json.RawMessage, execErr error) {
	var err error
	if execErr != nil {
		err = w.Coord.Fail(r.LeaseID, r.Task.Key, execErr.Error())
	} else {
		err = w.Coord.Complete(r.LeaseID, r.Task.Key, result)
	}
	if err != nil {
		w.logf("fabric: worker %s: report for %s failed: %v", w.ID, r.Task.Key, err)
	}
}

// runTask executes the task's experiment through the engine layer and
// returns its tables as canonical JSON.
func (w *Worker) runTask(ctx context.Context, t Task) (json.RawMessage, error) {
	tables, err := engine.RunExperiment(ctx, t.Experiment.ID, t.Experiment.Full, w.parallel, t.Experiment.Deadline)
	if err != nil {
		return nil, err
	}
	return json.Marshal(tables)
}

// sleepCtx sleeps for d or until ctx is canceled; it reports whether
// the full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
