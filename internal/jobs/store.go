package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/faultinject"
	"repro/internal/pram"
)

// Options configures a Store.
type Options struct {
	// Workers is the number of jobs executed concurrently (0 = 1),
	// whatever their kinds: each sweep job carries its own parallelism
	// and point deadline.
	Workers int
	// Logf receives the store's operational notices (recovery, persist
	// degradation). Nil discards them.
	Logf func(format string, args ...any)
}

// Store is a persistent job queue over one state directory. All methods
// are safe for concurrent use.
type Store struct {
	dir     string
	workers int
	logf    func(format string, args ...any)

	// baseCtx parents every job context; Kill cancels it wholesale.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[string]*jobState
	order   []string // job IDs in submission order
	queue   []string // queued job IDs, FIFO
	nextSeq int
	closing bool
	killed  bool

	wg sync.WaitGroup
}

// jobState pairs a job record with its live machinery.
type jobState struct {
	job    Job
	hub    *hub
	cancel context.CancelFunc // non-nil while running
	reason exitReason
}

// exitReason records why a running job's context was canceled, so the
// worker knows what to persist when the engine returns.
type exitReason int

const (
	reasonNone   exitReason = iota
	reasonCancel            // user cancellation: persist canceled
	reasonDrain             // graceful shutdown: persist queued+resume
	reasonKill              // simulated crash: persist nothing
)

// Open loads (or creates) the state directory, recovers interrupted
// jobs, and starts the worker pool. Jobs found "running" were cut off by
// a crash: they re-enter the queue with Resume set, so execution picks
// up from their checkpoints. Jobs found "queued" simply re-enter the
// queue. Recovery order is ID order, which is submission order.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("jobs: create state dir: %w", err)
	}
	s := &Store{
		dir:     dir,
		workers: max(opts.Workers, 1),
		logf:    opts.Logf,
		jobs:    make(map[string]*jobState),
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())

	if err := s.recover(); err != nil {
		return nil, err
	}
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recover scans the jobs directory and rebuilds the in-memory state.
func (s *Store) recover() error {
	entries, err := os.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return fmt.Errorf("jobs: scan state dir: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		var job Job
		data, err := os.ReadFile(filepath.Join(s.dir, "jobs", name, "status.json"))
		if err == nil {
			job, err = decodeJob(data, name)
		}
		if err != nil {
			// A half-created job directory (crash between mkdir and the
			// first persist) holds no recoverable work, and a record the
			// store could not have written is not trusted with any;
			// leave either for inspection but don't let it wedge the
			// store.
			s.logf("jobs: skipping unreadable job %s: %v", name, err)
			continue
		}
		var seq int
		if _, err := fmt.Sscanf(job.ID, "j%d", &seq); err == nil && seq >= s.nextSeq {
			s.nextSeq = seq + 1
		}
		js := &jobState{job: job, hub: newHub()}
		if job.State.Terminal() {
			js.hub.close()
		}
		s.jobs[job.ID] = js
		s.order = append(s.order, job.ID)
		switch job.State {
		case StateRunning:
			// Interrupted by a crash: the fail-stop/restart model one
			// level up. Re-enqueue with Resume set; determinism makes
			// the resumed job's results identical to an uninterrupted
			// run's.
			js.job.State = StateQueued
			js.job.Resume = true
			js.job.Resumes++
			js.job.Started = time.Time{}
			s.persist(js)
			s.queue = append(s.queue, job.ID)
			obsRecovered()
			s.logf("jobs: recovered interrupted job %s (resume #%d)", job.ID, js.job.Resumes)
		case StateQueued:
			s.queue = append(s.queue, job.ID)
			obsQueuedDelta(1)
		}
	}
	return nil
}

// Dir returns the store's state directory.
func (s *Store) Dir() string { return s.dir }

// jobDir returns the directory holding id's files.
func (s *Store) jobDir(id string) string { return filepath.Join(s.dir, "jobs", id) }

// Submit validates spec, assigns an ID, persists the job, and enqueues
// it. The returned Job is the queued record.
func (s *Store) Submit(spec Spec) (Job, error) {
	if err := spec.Validate(); err != nil {
		return Job{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return Job{}, ErrClosed
	}
	id := fmt.Sprintf("j%06d", s.nextSeq)
	s.nextSeq++
	job := Job{ID: id, Spec: spec, State: StateQueued, Created: time.Now().UTC()}
	dir := s.jobDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Job{}, fmt.Errorf("jobs: create job dir: %w", err)
	}
	if err := writeJSONAtomic(filepath.Join(dir, "status.json"), job); err != nil {
		return Job{}, err
	}
	js := &jobState{job: job, hub: newHub()}
	s.jobs[id] = js
	s.order = append(s.order, id)
	s.queue = append(s.queue, id)
	obsSubmitted()
	obsQueuedDelta(1)
	s.cond.Signal()
	return job, nil
}

// Get returns the job record for id.
func (s *Store) Get(id string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return js.job, nil
}

// List returns every job record in submission order.
func (s *Store) List() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].job)
	}
	return out
}

// Cancel stops a queued or running job. A queued job goes terminal
// immediately; a running job's context is canceled and it goes terminal
// when the engine returns. Canceling a terminal job reports ErrState.
func (s *Store) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	switch js.job.State {
	case StateQueued:
		for i, qid := range s.queue {
			if qid == id {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		js.job.State = StateCanceled
		js.job.Error = "canceled before start"
		js.job.Finished = time.Now().UTC()
		s.persist(js)
		s.publishState(js)
		js.hub.close()
		obsQueuedDelta(-1)
		obsFinished(StateCanceled)
		return nil
	case StateRunning:
		if js.reason == reasonNone {
			js.reason = reasonCancel
			js.cancel()
		}
		return nil
	default:
		return fmt.Errorf("%w: job %s is already %s", ErrState, id, js.job.State)
	}
}

// Result returns the raw result.json of a done job.
func (s *Store) Result(id string) ([]byte, error) {
	job, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	if job.State != StateDone {
		return nil, fmt.Errorf("%w: job %s has no result (state %s)", ErrState, id, job.State)
	}
	return os.ReadFile(filepath.Join(s.jobDir(id), "result.json"))
}

// Subscribe attaches a live event stream to id: run event lines as the
// engine emits them, experiment-completion lines for sweeps, and state
// transitions. The channel closes when the job reaches a terminal state
// (immediately, for jobs already terminal); the returned func
// unsubscribes early.
func (s *Store) Subscribe(id string) (<-chan []byte, func(), error) {
	s.mu.Lock()
	js, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	ch, stop := js.hub.subscribe()
	return ch, stop, nil
}

// Close drains the store gracefully: no new submissions, no new job
// starts, and every running job is interrupted, checkpointed (the
// engine's cancel path flushes a final checkpoint), and persisted back
// to queued with Resume set, so the next Open continues it. Close waits
// for the workers until ctx expires.
func (s *Store) Close(ctx context.Context) error {
	s.mu.Lock()
	s.closing = true
	for _, js := range s.jobs {
		if js.cancel != nil && js.reason == reasonNone {
			js.reason = reasonDrain
			js.cancel()
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.mu.Lock()
		for _, js := range s.jobs {
			js.hub.close()
		}
		s.mu.Unlock()
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: drain incomplete: %w", ctx.Err())
	}
}

// Kill abandons the store the way SIGKILL would: every job context is
// canceled and nothing further is persisted, so a job that was running
// stays "running" on disk — exactly the state a crash leaves behind,
// which the next Open must recover. Tests use it to exercise the
// crash-recovery path in-process.
func (s *Store) Kill() {
	s.mu.Lock()
	s.killed = true
	s.closing = true
	for _, js := range s.jobs {
		if js.cancel != nil {
			js.reason = reasonKill
			js.cancel()
		}
	}
	s.baseCancel()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	for _, js := range s.jobs {
		js.hub.close()
	}
	s.mu.Unlock()
}

// worker is one executor loop: pop the queue FIFO, run, repeat.
func (s *Store) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closing && len(s.queue) == 0 {
			s.cond.Wait()
		}
		if s.closing {
			s.mu.Unlock()
			return
		}
		id := s.queue[0]
		s.queue = s.queue[1:]
		js := s.jobs[id]
		js.job.State = StateRunning
		js.job.Started = time.Now().UTC()
		js.job.Error = ""
		js.reason = reasonNone
		ctx, cancel := context.WithCancel(s.baseCtx)
		js.cancel = cancel
		s.persist(js)
		s.publishState(js)
		obsQueuedDelta(-1)
		obsRunningDelta(1)
		s.mu.Unlock()

		result, err := s.execute(ctx, js)
		cancel()
		s.finish(js, result, err)
	}
}

// execute dispatches one job to its engine path. It runs on the worker
// goroutine; the engine's sinks and callbacks run there too.
func (s *Store) execute(ctx context.Context, js *jobState) (any, error) {
	dir := s.jobDir(js.job.ID)
	kill := faultinject.Active().Point(KillPoint)
	warnf := func(format string, args ...any) {
		s.logf("jobs: %s: "+format, append([]any{js.job.ID}, args...)...)
	}

	switch js.job.Spec.Kind {
	case KindRun:
		spec := *js.job.Spec.Run
		spec.CheckpointPath = filepath.Join(dir, "checkpoint.snap")
		f, err := os.OpenFile(filepath.Join(dir, "events.jsonl"), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("jobs: open events file: %w", err)
		}
		defer f.Close()
		jsonl := pram.NewJSONL(io.MultiWriter(f, hubWriter{js.hub}))
		jsonl.Ticks, jsonl.Sample = spec.TraceTicksOnly, spec.TraceSample
		var snap *pram.Snapshot
		if js.job.Resume {
			// With no loadable checkpoint the job restarts from scratch,
			// which determinism makes merely slower, never wrong.
			if snap, err = pram.LoadCheckpoint(spec.CheckpointPath, warnf); err != nil && !errors.Is(err, fs.ErrNotExist) {
				warnf("warning: no loadable checkpoint at %s (%v); restarting from scratch", spec.CheckpointPath, err)
			}
		}
		if err := resumeEvents(f, jsonl, snap); err != nil {
			return nil, err
		}
		var sink pram.Sink = jsonl
		if kill != nil {
			sink = killSink{jsonl, func() {
				if kill.Fire() {
					s.killJob(js)
				}
			}}
		}
		return engine.ExecuteRun(ctx, spec, engine.RunOptions{
			Sink:     sink,
			Snapshot: snap,
			Warnf:    warnf,
			Logf:     s.logf,
		})
	case KindSweep:
		// A sweep job is a fabric Do-All over the ledger in sweep/, with
		// the spec's Parallel as its parallelism budget. A resumed job
		// keeps the ledger, so the experiments committed before the
		// interruption are cache hits and only the missing ones run.
		spec := *js.job.Spec.Sweep
		res, _, err := fabric.RunSweep(ctx, spec, fabric.RunSweepOptions{
			StateDir: filepath.Join(dir, "sweep"),
			Workers:  spec.Parallel,
			Fresh:    !js.job.Resume,
			Logf:     warnf,
			OnCommit: func(t fabric.Task) {
				line, err := json.Marshal(struct {
					Ev string `json:"ev"`
					ID string `json:"id"`
				}{"experiment", t.Experiment.ID})
				if err == nil {
					js.hub.publish(line)
				}
				if kill != nil && kill.Fire() {
					s.killJob(js)
				}
			},
		})
		return res, err
	case KindSim:
		// ExecuteSim polls ctx once per tick, so a cancel or a drain
		// stops a running simulation at the next tick boundary. It keeps
		// no checkpoint: a drained or killed sim job re-runs from scratch
		// on recovery, which determinism makes equivalent.
		return engine.ExecuteSim(ctx, *js.job.Spec.Sim)
	default:
		return nil, fmt.Errorf("jobs: unknown kind %q", js.job.Spec.Kind)
	}
}

// resumeEvents readies a run job's events file, its durable trace, for
// the run about to start. A job resuming from snap keeps the lines of
// the ticks before snap.Tick and appends after them: the engine
// continues at that tick, so the file ends up byte-identical to an
// uninterrupted run's, even when the crash came after later ticks were
// written or the newest checkpoint generation did not load. With no
// snapshot the run starts from scratch, and so does the file.
func resumeEvents(f *os.File, jsonl *pram.JSONL, snap *pram.Snapshot) error {
	var keep int64
	if snap != nil {
		var err error
		if keep, err = jsonl.Resume(f, snap.Tick); err != nil {
			return fmt.Errorf("jobs: read events file: %w", err)
		}
	}
	if err := f.Truncate(keep); err != nil {
		return fmt.Errorf("jobs: truncate events file: %w", err)
	}
	if _, err := f.Seek(keep, io.SeekStart); err != nil {
		return fmt.Errorf("jobs: seek events file: %w", err)
	}
	return nil
}

// killSink is a run job's sink while the jobs.kill failpoint is armed:
// the events sink, with the failpoint checked after every tick and
// every quiet window. It embeds the *pram.JSONL, a BatchSink, where a
// pram.MultiSink (which is not one) would turn batching off, so a chaos
// run batches exactly as an unarmed one.
type killSink struct {
	*pram.JSONL
	check func()
}

// TickDone implements pram.Sink.
func (k killSink) TickDone(ev pram.TickEvent) {
	k.JSONL.TickDone(ev)
	k.check()
}

// BatchDone implements pram.BatchSink.
func (k killSink) BatchDone(ev pram.BatchEvent) {
	k.JSONL.BatchDone(ev)
	k.check()
}

// finish persists a finished job according to why it stopped.
func (s *Store) finish(js *jobState, result any, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js.cancel = nil
	obsRunningDelta(-1)
	switch {
	case js.reason == reasonKill || s.killed:
		// Simulated crash: the disk keeps saying "running", exactly as a
		// real SIGKILL would leave it. Only in-memory resources go.
		js.hub.close()
		return
	case js.reason == reasonDrain:
		// Graceful shutdown: the engine's cancel path has flushed a
		// final checkpoint; park the job back in the (persisted) queue
		// so the next Open continues it.
		js.job.State = StateQueued
		js.job.Resume = true
		js.job.Started = time.Time{}
		s.persist(js)
		s.publishState(js)
		obsQueuedDelta(1)
		return
	case js.reason == reasonCancel:
		js.job.State = StateCanceled
		js.job.Error = "canceled"
	case err != nil:
		js.job.State = StateFailed
		js.job.Error = err.Error()
	default:
		if perr := writeJSONAtomic(filepath.Join(s.jobDir(js.job.ID), "result.json"), result); perr != nil {
			js.job.State = StateFailed
			js.job.Error = perr.Error()
			break
		}
		js.job.State = StateDone
	}
	js.job.Finished = time.Now().UTC()
	js.job.Resume = false
	s.persist(js)
	s.publishState(js)
	js.hub.close()
	obsFinished(js.job.State)
}

// killJob simulates a crash for one job: mark it killed and cancel its
// context. Called from engine callbacks on the worker goroutine.
func (s *Store) killJob(js *jobState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if js.cancel != nil && js.reason == reasonNone {
		js.reason = reasonKill
		js.cancel()
	}
}

// persist writes js's record to status.json; the caller holds s.mu (or
// is in recovery, before workers start). Persist failures degrade to a
// log line: the in-memory state is still authoritative for this process,
// and a stale status.json at worst re-runs work after a crash.
func (s *Store) persist(js *jobState) {
	if err := writeJSONAtomic(filepath.Join(s.jobDir(js.job.ID), "status.json"), js.job); err != nil {
		s.logf("jobs: persist %s: %v", js.job.ID, err)
	}
}

// publishState emits a state-transition line to the job's stream.
func (s *Store) publishState(js *jobState) {
	line, err := json.Marshal(struct {
		Ev    string `json:"ev"`
		State State  `json:"state"`
		Error string `json:"error,omitempty"`
	}{"state", js.job.State, js.job.Error})
	if err == nil {
		js.hub.publish(line)
	}
}

// writeJSONAtomic writes v as indented JSON via write-tmp-rename, so a
// crash mid-write never leaves a torn file at path.
func writeJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: marshal %s: %w", filepath.Base(path), err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("jobs: write %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("jobs: commit %s: %w", filepath.Base(path), err)
	}
	return nil
}

// decodeJob decodes a status.json and checks that the store could have
// written it for the job in directory name: the record's ID is name, so
// the files it leads to stay in that directory; its state is one of the
// five; and a queued or running job carries a spec that validates, so
// recovery never queues work Submit would have refused.
func decodeJob(data []byte, name string) (Job, error) {
	var job Job
	if err := json.Unmarshal(data, &job); err != nil {
		return Job{}, err
	}
	if job.ID != name {
		return Job{}, fmt.Errorf("record names job %q", job.ID)
	}
	switch job.State {
	case StateQueued, StateRunning:
		if err := job.Spec.Validate(); err != nil {
			return Job{}, err
		}
	case StateDone, StateFailed, StateCanceled:
	default:
		return Job{}, fmt.Errorf("unknown state %q", job.State)
	}
	return job, nil
}
