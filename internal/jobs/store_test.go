package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// runSpec is a deterministic Write-All run long enough to be killed
// mid-flight: X against the seeded random adversary, checkpointing
// every 8 ticks.
func runSpec() Spec {
	return Spec{Kind: KindRun, Run: &engine.RunSpec{
		Algorithm:       "X",
		Adversary:       "random",
		N:               512,
		P:               64,
		Seed:            3,
		FailProb:        0.2,
		RestartProb:     0.5,
		CheckpointEvery: 8,
	}}
}

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// waitTerminal polls until id reaches a terminal state.
func waitTerminal(t *testing.T, s *Store, id string) Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		job, err := s.Get(id)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if job.State.Terminal() {
			return job
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return Job{}
}

// waitStreamClosed subscribes to id and drains until the hub closes —
// the signal that the worker is done with the job, including the
// kill path that persists nothing.
func waitStreamClosed(t *testing.T, s *Store, id string) {
	t.Helper()
	ch, stop, err := s.Subscribe(id)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer stop()
	timeout := time.After(60 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return
			}
		case <-timeout:
			t.Fatalf("stream of job %s never closed", id)
		}
	}
}

func TestRunJobCompletes(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Kill()

	job, err := s.Submit(runSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got := waitTerminal(t, s, job.ID); got.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", got.State, got.Error)
	}

	raw, err := s.Result(job.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	var res engine.RunResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("result.json: %v", err)
	}
	if res.Metrics.Completed < int64(job.Spec.Run.N) {
		t.Fatalf("completed %d < N %d: run did not finish the task", res.Metrics.Completed, job.Spec.Run.N)
	}

	events, err := os.ReadFile(filepath.Join(s.jobDir(job.ID), "events.jsonl"))
	if err != nil {
		t.Fatalf("events.jsonl: %v", err)
	}
	if !strings.Contains(string(events), `"ev":"run"`) {
		t.Fatalf("events.jsonl has no run event")
	}
}

func TestSpecValidateRejectsPathsAndShape(t *testing.T) {
	cases := []Spec{
		{},
		{Kind: KindRun},
		{Kind: KindRun, Run: &engine.RunSpec{Algorithm: "X", Adversary: "none", N: 8}, Sim: &engine.SimSpec{}},
		{Kind: KindSim, Run: &engine.RunSpec{Algorithm: "X", Adversary: "none", N: 8}},
		{Kind: "bogus", Run: &engine.RunSpec{Algorithm: "X", Adversary: "none", N: 8}},
		{Kind: KindRun, Run: &engine.RunSpec{Algorithm: "X", Adversary: "none", N: 8, CSVPath: "/tmp/x.csv"}},
		{Kind: KindRun, Run: &engine.RunSpec{Algorithm: "X", Adversary: "none", N: 8, ReplayPath: "/etc/passwd"}},
		{Kind: KindRun, Run: &engine.RunSpec{Algorithm: "X", Adversary: "none", N: 8, RestorePath: "x.snap"}},
		{Kind: KindRun, Run: &engine.RunSpec{Algorithm: "nope", Adversary: "none", N: 8}},
	}
	for i, spec := range cases {
		if err := spec.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, spec)
		}
	}
	ok := runSpec()
	if err := ok.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Kill()

	// Saturate the single worker so the second job stays queued.
	first, err := s.Submit(runSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	second, err := s.Submit(runSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := s.Cancel(second.ID); err != nil {
		t.Fatalf("Cancel queued: %v", err)
	}
	if job, _ := s.Get(second.ID); job.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", job.State)
	}
	if err := s.Cancel(second.ID); !errors.Is(err, ErrState) {
		t.Fatalf("Cancel terminal: err = %v, want ErrState", err)
	}
	waitTerminal(t, s, first.ID)
}

// waitRunning polls until id has started.
func waitRunning(t *testing.T, s *Store, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, _ := s.Get(id)
		if j.State == StateRunning {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started", id)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCancelRunningJob(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Kill()

	job, err := s.Submit(runSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitRunning(t, s, job.ID)
	if err := s.Cancel(job.ID); err != nil {
		t.Fatalf("Cancel running: %v", err)
	}
	if got := waitTerminal(t, s, job.ID); got.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", got.State)
	}
}

// longSimSpec is a sim job that would run for about an hour: an
// odd-even sort of 2¹⁴ elements on as many processors (N = 2048 takes
// 44 s on a 2-vCPU Xeon, and the cost grows about 4.5× per doubling of
// N). A test that stops it within seconds shows the stop interrupted the
// simulation rather than waiting it out.
func longSimSpec() Spec {
	return Spec{Kind: KindSim, Sim: &engine.SimSpec{Program: "odd-even-sort", N: 1 << 14}}
}

// TestCancelRunningSimJob cancels a sim job mid-run: it must end
// canceled within waitTerminal's deadline.
func TestCancelRunningSimJob(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Kill()

	job, err := s.Submit(longSimSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitRunning(t, s, job.ID)
	if err := s.Cancel(job.ID); err != nil {
		t.Fatalf("Cancel running: %v", err)
	}
	if got := waitTerminal(t, s, job.ID); got.State != StateCanceled {
		t.Fatalf("state = %s (error %q), want canceled", got.State, got.Error)
	}
}

func TestCloseDrainsAndReopenResumes(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)

	job, err := s.Submit(runSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Let it start so the drain interrupts a live run.
	for {
		if j, _ := s.Get(job.ID); j.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The drained job must be parked on disk as queued+resume.
	var onDisk Job
	if err := readJSON(filepath.Join(dir, "jobs", job.ID, "status.json"), &onDisk); err != nil {
		t.Fatalf("status.json: %v", err)
	}
	if onDisk.State != StateQueued || !onDisk.Resume {
		t.Fatalf("drained job on disk = %s resume=%v, want queued resume=true", onDisk.State, onDisk.Resume)
	}
	// A state dir written before the kernel knob was removed carries
	// "workers" in its run specs; recovery must still read them.
	addRunSpecField(t, filepath.Join(dir, "jobs", job.ID, "status.json"), "workers", 2)

	s2 := openStore(t, dir)
	defer s2.Kill()
	if got := waitTerminal(t, s2, job.ID); got.State != StateDone {
		t.Fatalf("resumed job state = %s (error %q), want done", got.State, got.Error)
	}
}

// TestCloseDrainsRunningSimJob drains a store while a sim job runs: the
// drain stops the simulation at a tick boundary and parks the job on
// disk as queued and resumable, for a re-run from scratch. A drain that
// waited out the simulation would miss Close's deadline.
func TestCloseDrainsRunningSimJob(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)

	job, err := s.Submit(longSimSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitRunning(t, s, job.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var onDisk Job
	if err := readJSON(filepath.Join(dir, "jobs", job.ID, "status.json"), &onDisk); err != nil {
		t.Fatalf("status.json: %v", err)
	}
	if onDisk.State != StateQueued || !onDisk.Resume {
		t.Fatalf("drained sim job on disk = %s resume=%v, want queued resume=true", onDisk.State, onDisk.Resume)
	}
}

// addRunSpecField adds key: v to the run spec of the job record at
// path.
func addRunSpecField(t *testing.T, path, key string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	spec, _ := doc["spec"].(map[string]any)
	run, ok := spec["run"].(map[string]any)
	if !ok {
		t.Fatalf("%s holds no run spec", path)
	}
	run[key] = v
	if data, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestKillMidRunResumesBitIdentical is the service-level crash drill:
// a run job is killed mid-flight through the jobs.kill failpoint (disk
// left saying "running"), the store is reopened, and the recovered job
// must converge to the same result — with an events.jsonl that is
// byte-identical to an uninterrupted run's. The rows cover the spec's
// trace settings and a batched run, whose quiet windows must end on the
// same ticks after the resume; the batched row's batch_ticks does not
// divide its checkpoint_every, so a resume between two checkpoints
// would shift them. The torn row also tears the newest checkpoint
// generation, as a crash between periodic checkpoints leaves it, so the
// job resumes from the previous one, behind the events already written.
func TestKillMidRunResumesBitIdentical(t *testing.T) {
	traced := func(f func(*engine.RunSpec)) Spec {
		spec := runSpec()
		f(spec.Run)
		return spec
	}
	for _, row := range []struct {
		name string
		spec Spec
		tear bool
	}{
		{"X-random", runSpec(), false},
		{"batched", Spec{Kind: KindRun, Run: &engine.RunSpec{
			Algorithm: "trivial", Adversary: "none", N: 4096, P: 8,
			Packed: true, BatchTicks: 5, CheckpointEvery: 8,
		}}, false},
		{"trace_ticks", traced(func(r *engine.RunSpec) { r.TraceTicksOnly = true }), false},
		{"trace_sample", traced(func(r *engine.RunSpec) { r.TraceSample = 3 }), false},
		{"torn", runSpec(), true},
	} {
		t.Run(row.name, func(t *testing.T) { killMidRun(t, row.spec, row.tear) })
	}
}

// killMidRun runs spec uninterrupted, then killed after 40 sink events
// (well past the first checkpoint) and recovered, and requires equal
// events files and results; with tear set the killed job's newest
// checkpoint generation is torn before recovery.
func killMidRun(t *testing.T, spec Spec, tear bool) {
	// Baseline: uninterrupted.
	baseDir := t.TempDir()
	base := openStore(t, baseDir)
	baseJob, err := base.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got := waitTerminal(t, base, baseJob.ID); got.State != StateDone {
		t.Fatalf("baseline state = %s (error %q)", got.State, got.Error)
	}
	baseEvents, err := os.ReadFile(filepath.Join(base.jobDir(baseJob.ID), "events.jsonl"))
	if err != nil {
		t.Fatalf("baseline events: %v", err)
	}
	baseResult, err := base.Result(baseJob.ID)
	if err != nil {
		t.Fatalf("baseline result: %v", err)
	}
	base.Kill()
	checkTraceSettings(t, spec.Run, baseEvents)

	// Chaos: kill after 40 sink events (well past the first checkpoint).
	reg := faultinject.New(1)
	reg.Set(KillPoint, faultinject.Spec{Mode: faultinject.Error, After: 40})
	old := faultinject.Swap(reg)
	defer faultinject.Swap(old)

	dir := t.TempDir()
	s := openStore(t, dir)
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// The kill path closes the hub without persisting, so stream close
	// is the "process died" signal.
	waitStreamClosed(t, s, job.ID)
	s.Kill()

	// The crash left the job "running" on disk.
	var onDisk Job
	if err := readJSON(filepath.Join(dir, "jobs", job.ID, "status.json"), &onDisk); err != nil {
		t.Fatalf("status.json: %v", err)
	}
	if onDisk.State != StateRunning {
		t.Fatalf("killed job on disk = %s, want running", onDisk.State)
	}
	if reg.Fires(KillPoint) == 0 {
		t.Fatalf("kill failpoint never fired")
	}
	if tear {
		snap := filepath.Join(dir, "jobs", job.ID, "checkpoint.snap")
		info, err := os.Stat(snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(snap, info.Size()/2); err != nil {
			t.Fatal(err)
		}
	}

	// Restart without the failpoint; recovery must resume and finish.
	faultinject.Swap(old)
	s2 := openStore(t, dir)
	defer s2.Kill()
	got := waitTerminal(t, s2, job.ID)
	if got.State != StateDone {
		t.Fatalf("recovered job state = %s (error %q), want done", got.State, got.Error)
	}
	if got.Resumes != 1 {
		t.Fatalf("recovered job resumes = %d, want 1", got.Resumes)
	}

	events, err := os.ReadFile(filepath.Join(s2.jobDir(job.ID), "events.jsonl"))
	if err != nil {
		t.Fatalf("resumed events: %v", err)
	}
	if !bytes.Equal(events, baseEvents) {
		t.Fatalf("resumed events.jsonl differs from uninterrupted baseline: %d vs %d bytes",
			len(events), len(baseEvents))
	}
	result, err := s2.Result(job.ID)
	if err != nil {
		t.Fatalf("resumed result: %v", err)
	}
	// The results must agree on everything but provenance: the resumed
	// job records the checkpoint tick it restarted from.
	var baseRes, res engine.RunResult
	if err := json.Unmarshal(baseResult, &baseRes); err != nil {
		t.Fatalf("baseline result.json: %v", err)
	}
	if err := json.Unmarshal(result, &res); err != nil {
		t.Fatalf("resumed result.json: %v", err)
	}
	if res.ResumedFromTick == 0 {
		t.Fatalf("recovered job did not resume from a checkpoint")
	}
	res.ResumedFromTick = 0
	baseJSON, _ := json.Marshal(baseRes)
	gotJSON, _ := json.Marshal(res)
	if !bytes.Equal(baseJSON, gotJSON) {
		t.Fatalf("resumed result differs from baseline:\n%s\nvs\n%s", gotJSON, baseJSON)
	}
}

// traceLines decodes an events file's lines.
func traceLines(t *testing.T, events []byte) []traceLine {
	t.Helper()
	var out []traceLine
	for _, line := range bytes.Split(bytes.TrimSpace(events), []byte("\n")) {
		var ev traceLine
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad events line %q: %v", line, err)
		}
		out = append(out, ev)
	}
	return out
}

// traceLine holds the fields of an events line the tests check.
type traceLine struct {
	Ev                       string
	Tick, From, Ticks, Alive int
	Metrics                  struct{ Ticks int }
}

// checkTraceSettings requires a job's events file to honor its spec's
// trace_ticks (no cycle line) and trace_sample (every Nth cycle event,
// counted by the tick lines' alive totals).
func checkTraceSettings(t *testing.T, spec *engine.RunSpec, events []byte) {
	t.Helper()
	cycles, alive := 0, 0
	for _, ev := range traceLines(t, events) {
		switch ev.Ev {
		case "cycle":
			cycles++
		case "tick":
			alive += ev.Alive
		}
	}
	want := alive
	switch {
	case spec.TraceTicksOnly:
		want = 0
	case spec.TraceSample > 1:
		want = (alive + spec.TraceSample - 1) / spec.TraceSample
	}
	if cycles != want {
		t.Fatalf("events file holds %d cycle lines, want %d of %d cycle events (trace_ticks %v, trace_sample %d)",
			cycles, want, alive, spec.TraceTicksOnly, spec.TraceSample)
	}
}

// TestBatchedJobKeepsQuietWindows guards the job event path against
// silent disengagement: a batched trivial job runs quiet windows, and
// its batch and tick lines together cover every tick once.
func TestBatchedJobKeepsQuietWindows(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Kill()
	job, err := s.Submit(Spec{Kind: KindRun, Run: &engine.RunSpec{
		Algorithm: "trivial", Adversary: "none", N: 1 << 14, P: 8, Packed: true, BatchTicks: 64,
	}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got := waitTerminal(t, s, job.ID); got.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", got.State, got.Error)
	}
	events, err := os.ReadFile(filepath.Join(s.jobDir(job.ID), "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := traceLines(t, events)
	next, batches := 0, 0
	for _, ev := range lines {
		switch {
		case ev.Ev == "tick" && ev.Tick == next:
			next++
		case ev.Ev == "batch" && ev.From == next && ev.Ticks >= 2:
			next += ev.Ticks
			batches++
		case ev.Ev == "tick" || ev.Ev == "batch":
			t.Fatalf("line %+v does not start at tick %d", ev, next)
		}
	}
	if run := lines[len(lines)-1]; run.Ev != "run" || next != run.Metrics.Ticks || batches == 0 {
		t.Fatalf("%d batch lines; tick and batch lines cover [0, %d), want [0, Ticks) of the final run line %+v with at least one batch line",
			batches, next, run)
	}
}

// ledgerResults counts the committed results in a sweep job's fabric
// ledger.
func ledgerResults(t *testing.T, dir string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "sweep", "ledger.jsonl"))
	if err != nil {
		t.Fatalf("sweep ledger: %v", err)
	}
	return bytes.Count(data, []byte(`{"key":"result/`))
}

// TestKillMidSweepResumesIdentical kills a sweep job after its second
// experiment commits to the job's ledger, restarts the store, and
// requires the recovered job's result.json to equal an uninterrupted
// baseline's byte for byte. Recovery executes only the experiments the
// ledger is missing: the ones it holds are cache hits, and the ledger
// ends with each experiment's result exactly once.
func TestKillMidSweepResumesIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep jobs run real experiments")
	}
	// A test binary carries no VCS stamp; the recovery's cache hits need
	// a code version.
	t.Setenv("PRAM_CODE_VERSION", "test")
	spec := Spec{Kind: KindSweep, Sweep: &engine.SweepSpec{Run: []string{"E1", "E4", "E13"}}}

	baseDir := t.TempDir()
	base := openStore(t, baseDir)
	baseJob, err := base.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got := waitTerminal(t, base, baseJob.ID); got.State != StateDone {
		t.Fatalf("baseline state = %s (error %q)", got.State, got.Error)
	}
	baseRaw, err := base.Result(baseJob.ID)
	if err != nil {
		t.Fatalf("baseline result: %v", err)
	}
	base.Kill()

	// Kill after the second experiment commits.
	reg := faultinject.New(1)
	reg.Set(KillPoint, faultinject.Spec{Mode: faultinject.Error, After: 1})
	old := faultinject.Swap(reg)
	defer faultinject.Swap(old)

	dir := t.TempDir()
	s := openStore(t, dir)
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitStreamClosed(t, s, job.ID)
	s.Kill()
	var onDisk Job
	if err := readJSON(filepath.Join(dir, "jobs", job.ID, "status.json"), &onDisk); err != nil {
		t.Fatalf("status.json: %v", err)
	}
	if onDisk.State != StateRunning {
		t.Fatalf("killed sweep on disk = %s, want running", onDisk.State)
	}
	jobDir := filepath.Join(dir, "jobs", job.ID)
	kept := ledgerResults(t, jobDir)
	if kept < 2 || kept > 3 {
		t.Fatalf("killed sweep's ledger holds %d results, want the 2 committed before the kill (3 if a worker raced it)", kept)
	}

	faultinject.Swap(old)
	mreg := obs.NewRegistry()
	fabric.EnableObs(mreg)
	s2 := openStore(t, dir)
	defer s2.Kill()
	got := waitTerminal(t, s2, job.ID)
	if got.State != StateDone {
		t.Fatalf("recovered sweep state = %s (error %q), want done", got.State, got.Error)
	}
	raw, err := s2.Result(job.ID)
	if err != nil {
		t.Fatalf("resumed result: %v", err)
	}
	if !bytes.Equal(raw, baseRaw) {
		t.Fatalf("recovered sweep result differs from baseline:\n%s\nvs\n%s", raw, baseRaw)
	}
	hits, _ := mreg.Value(obs.MetricFabricCacheHits)
	commits, _ := mreg.Value(obs.MetricFabricCommits)
	if int(hits) != kept || int(commits) != 3-kept {
		t.Fatalf("recovery served %v cache hit(s) and executed %v experiment(s); want the ledger's %d and the missing %d", hits, commits, kept, 3-kept)
	}
	if n := ledgerResults(t, jobDir); n != 3 {
		t.Fatalf("ledger holds %d results after recovery, want 3", n)
	}
}

// TestConcurrentSweepJobsKeepTheirSettings runs two sweep jobs at once
// on two workers, one with a 1ns point deadline and one without. Each
// job's result must equal the same sweep run alone.
func TestConcurrentSweepJobsKeepTheirSettings(t *testing.T) {
	specs := []engine.SweepSpec{
		{Run: []string{"E1"}, Deadline: time.Nanosecond},
		{Run: []string{"E1"}},
	}
	s, err := Open(t.TempDir(), Options{Workers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Kill()
	ids := make([]string, len(specs))
	for i := range specs {
		job, err := s.Submit(Spec{Kind: KindSweep, Sweep: &specs[i]})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids[i] = job.ID
	}
	for i, spec := range specs {
		if got := waitTerminal(t, s, ids[i]); got.State != StateDone {
			t.Fatalf("sweep job %d state = %s (error %q), want done", i, got.State, got.Error)
		}
		raw, err := s.Result(ids[i])
		if err != nil {
			t.Fatalf("Result: %v", err)
		}
		var res engine.SweepResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("result.json: %v", err)
		}
		alone, err := engine.ExecuteSweep(context.Background(), spec, engine.SweepOptions{})
		if err != nil {
			t.Fatalf("ExecuteSweep: %v", err)
		}
		gotJSON, _ := json.Marshal(res)
		wantJSON, _ := json.Marshal(alone)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("sweep job with deadline %v differs from the sweep run alone:\njob   %s\nalone %s", spec.Deadline, gotJSON, wantJSON)
		}
	}
}

func TestSimJobCompletes(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Kill()

	job, err := s.Submit(Spec{Kind: KindSim, Sim: &engine.SimSpec{
		Program: "prefix-sum", N: 64, Adversary: "random", Seed: 2, FailProb: 0.2, RestartProb: 0.5,
	}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got := waitTerminal(t, s, job.ID); got.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", got.State, got.Error)
	}
	var res engine.SimResult
	raw, err := s.Result(job.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("result.json: %v", err)
	}
	if !res.Validated {
		t.Fatalf("sim result not validated: %+v", res)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	s := openStore(t, t.TempDir())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := s.Submit(runSpec()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
}
