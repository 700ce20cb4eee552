package fabric

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// fakeClock is an injectable clock for pinning lease-expiry edges.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// expTask builds a quick-scale experiment task without executing it;
// ledger-protocol tests drive the coordinator API directly.
func expTask(id string) Task {
	return Task{Key: id + "/scale=1", Experiment: ExperimentTask{ID: id}}
}

// testOptions returns tight, deterministic coordinator options around
// the given clock.
func testOptions(clk *fakeClock) Options {
	return Options{
		MaxAttempts: 10,
		LeaseTTL:    time.Second,
		Backoff:     10 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
		CodeVersion: "test",
		Now:         clk.now,
	}
}

// ledgerResultCount counts "result/" entries physically present in the
// ledger file (not the in-memory view), for at-most-once assertions.
func ledgerResultCount(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open ledger: %v", err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e struct {
			Key string `json:"key"`
		}
		if json.Unmarshal(sc.Bytes(), &e) == nil && strings.HasPrefix(e.Key, "result/") {
			n++
		}
	}
	return n
}

func TestDecompose(t *testing.T) {
	tasks, err := Decompose(engine.SweepSpec{Run: []string{"E4", "e1"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2 || tasks[0].Key != "E1/scale=1" || tasks[1].Key != "E4/scale=1" {
		t.Fatalf("want registry-ordered [E1/scale=1 E4/scale=1], got %+v", tasks)
	}
	full, err := Decompose(engine.SweepSpec{Run: []string{"E4"}, Full: true})
	if err != nil {
		t.Fatal(err)
	}
	if full[0].Key != "E4/scale=2" || !full[0].Experiment.Full {
		t.Fatalf("full decompose: got %+v", full[0])
	}
	if _, err := Decompose(engine.SweepSpec{Run: []string{"E99"}}); err == nil {
		t.Fatal("unknown experiment ID should fail decomposition")
	}
	// The point deadline travels with each task; Validate's refusals
	// are Decompose's.
	timed, err := Decompose(engine.SweepSpec{Run: []string{"E1"}, Deadline: time.Second})
	if err != nil || timed[0].Experiment.Deadline != time.Second {
		t.Errorf("Decompose with a deadline = %+v, %v; want the task to carry 1s", timed, err)
	}
	if _, err := Decompose(engine.SweepSpec{Run: []string{"E1"}, Deadline: -time.Second}); err == nil {
		t.Error("Decompose accepted a negative deadline that SweepSpec.Validate rejects")
	}
	if _, err := Decompose(engine.SweepSpec{Run: []string{"E1"}, Parallel: 4}); err != nil {
		t.Errorf("Decompose with Parallel set: %v; parallelism never changes tables", err)
	}
}

func TestCacheKey(t *testing.T) {
	a := expTask("E4")
	b := expTask("E4")
	if CacheKey(a, "v1") != CacheKey(b, "v1") {
		t.Fatal("identical tasks must share a cache key")
	}
	c := b
	c.Experiment.Full = true
	if CacheKey(a, "v1") == CacheKey(c, "v1") {
		t.Fatal("a different scale must rotate the cache key")
	}
	if CacheKey(a, "v1") == CacheKey(a, "v2") {
		t.Fatal("a different code version must rotate the cache key")
	}
	// Ledgers written by earlier versions of the task type must keep
	// their cache hits: the key of an experiment task is pinned.
	const pinned = "5a961efbdc0001be64e64ad2b7370f087ccef420e8d0dce4541b1c084a51902f"
	if got := CacheKey(a, "v1"); got != pinned {
		t.Errorf("CacheKey(%+v, v1) = %s, want %s", a, got, pinned)
	}
}

// TestLeaseExpiryAtMostOnce pins the reassignment race: a worker that
// finishes after its lease expired and the task was handed to someone
// else must not double-commit — exactly one result lands in the
// ledger, whichever completion arrives first.
func TestLeaseExpiryAtMostOnce(t *testing.T) {
	for _, lateFirst := range []bool{false, true} {
		name := "reassigned-commits-first"
		if lateFirst {
			name = "late-completion-commits-first"
		}
		t.Run(name, func(t *testing.T) {
			clk := newFakeClock()
			path := filepath.Join(t.TempDir(), "ledger.jsonl")
			c, err := NewCoordinator([]Task{expTask("E1")}, path, testOptions(clk))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			r1, err := c.Lease("w1")
			if err != nil || r1.Task == nil {
				t.Fatalf("w1 lease: %+v, %v", r1, err)
			}
			clk.advance(r1.TTL + time.Nanosecond) // w1's lease expires

			// The expiry is detected on the next call and the retry
			// backoff gates the task briefly.
			if r, _ := c.Lease("w2"); r.Task != nil {
				t.Fatalf("task should be backoff-gated right after expiry, got lease %+v", r)
			}
			clk.advance(100 * time.Millisecond)
			r2, err := c.Lease("w2")
			if err != nil || r2.Task == nil {
				t.Fatalf("w2 lease after backoff: %+v, %v", r2, err)
			}

			first, second := r2.LeaseID, r1.LeaseID
			firstPayload, secondPayload := `["w2"]`, `["w1"]`
			if lateFirst {
				first, second = r1.LeaseID, r2.LeaseID
				firstPayload, secondPayload = `["w1"]`, `["w2"]`
			}
			if err := c.Complete(first, r1.Task.Key, json.RawMessage(firstPayload)); err != nil {
				t.Fatalf("first complete: %v", err)
			}
			if err := c.Complete(second, r1.Task.Key, json.RawMessage(secondPayload)); err != nil {
				t.Fatalf("second complete: %v", err)
			}

			s := c.Stats()
			if s.Commits != 1 || s.DuplicateCommits != 1 || s.Done != 1 {
				t.Fatalf("want 1 commit, 1 suppressed duplicate, 1 done; got %+v", s)
			}
			if raw, _ := c.Result(r1.Task.Key); string(raw) != firstPayload {
				t.Fatalf("first completion must win: got %s", raw)
			}
			if n := ledgerResultCount(t, path); n != 1 {
				t.Fatalf("ledger must hold exactly one result, found %d", n)
			}
		})
	}
}

// TestHeartbeatAtDeadline pins the boundary: a heartbeat arriving
// exactly at the deadline is honored; one instant later is not.
func TestHeartbeatAtDeadline(t *testing.T) {
	clk := newFakeClock()
	c, err := NewCoordinator([]Task{expTask("E1")}, filepath.Join(t.TempDir(), "ledger.jsonl"), testOptions(clk))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	r, err := c.Lease("w1")
	if err != nil || r.Task == nil {
		t.Fatalf("lease: %+v, %v", r, err)
	}
	clk.advance(r.TTL) // exactly at the deadline
	if err := c.Heartbeat(r.LeaseID); err != nil {
		t.Fatalf("heartbeat exactly at the deadline must be honored: %v", err)
	}
	clk.advance(r.TTL) // exactly at the extended deadline
	if err := c.Heartbeat(r.LeaseID); err != nil {
		t.Fatalf("heartbeat at the extended deadline must be honored: %v", err)
	}
	clk.advance(r.TTL + time.Nanosecond) // one instant past it
	if err := c.Heartbeat(r.LeaseID); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("heartbeat past the deadline must report ErrLeaseExpired, got %v", err)
	}
	s := c.Stats()
	if s.Heartbeats != 2 || s.LeasesExpired != 1 {
		t.Fatalf("want 2 honored heartbeats and 1 expiry, got %+v", s)
	}
}

func TestQuarantineAfterMaxAttempts(t *testing.T) {
	clk := newFakeClock()
	opts := testOptions(clk)
	opts.MaxAttempts = 2
	c, err := NewCoordinator([]Task{expTask("E1")}, filepath.Join(t.TempDir(), "ledger.jsonl"), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for attempt := 1; ; attempt++ {
		r, err := c.Lease("w1")
		if err != nil {
			t.Fatal(err)
		}
		if r.Done {
			break
		}
		if r.Task == nil {
			clk.advance(r.RetryAfter)
			continue
		}
		if err := c.Fail(r.LeaseID, r.Task.Key, "boom"); err != nil {
			t.Fatal(err)
		}
		if attempt > 5 {
			t.Fatal("quarantine never resolved the Do-All")
		}
	}
	s := c.Stats()
	if s.Quarantined != 1 || s.Retries != 1 || s.Done != 0 {
		t.Fatalf("want 1 quarantined after 1 retry, got %+v", s)
	}
	res, err := Assemble(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != 1 || len(res.Experiments) != 1 {
		t.Fatalf("quarantine must degrade, not vanish: %+v", res)
	}
	tbl := res.Experiments[0].Tables[0]
	if len(tbl.Errors) != 1 || !strings.Contains(tbl.Errors[0], "boom") {
		t.Fatalf("degraded table must carry the cause, got %+v", tbl)
	}
}

// TestCoordinatorRecovery restarts the coordinator mid-sweep and
// checks that committed results return as cache hits and failed
// attempts keep counting toward quarantine.
func TestCoordinatorRecovery(t *testing.T) {
	clk := newFakeClock()
	opts := testOptions(clk)
	opts.MaxAttempts = 2
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	tasks := []Task{expTask("E1"), expTask("E2")}

	a, err := NewCoordinator(tasks, path, opts)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := a.Lease("w1")
	if r1.Task == nil || r1.Task.Key != "E1/scale=1" {
		t.Fatalf("expected E1 first, got %+v", r1)
	}
	if err := a.Complete(r1.LeaseID, r1.Task.Key, json.RawMessage(`[]`)); err != nil {
		t.Fatal(err)
	}
	r2, _ := a.Lease("w1")
	if r2.Task == nil {
		t.Fatalf("expected E2 lease, got %+v", r2)
	}
	if err := a.Fail(r2.LeaseID, r2.Task.Key, "first attempt"); err != nil {
		t.Fatal(err)
	}
	a.Close() // coordinator crash

	b, err := NewCoordinator(tasks, path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	s := b.Stats()
	if s.CacheHits != 1 || s.Done != 1 || s.Pending != 1 {
		t.Fatalf("recovery must serve E1 from cache and keep E2 pending, got %+v", s)
	}
	clk.advance(time.Second) // clear the recovered backoff gate
	r3, _ := b.Lease("w2")
	if r3.Task == nil || r3.Task.Key != "E2/scale=1" {
		t.Fatalf("expected E2 reassigned, got %+v", r3)
	}
	// The pre-crash attempt was recorded, so one more failure hits
	// MaxAttempts=2.
	if err := b.Fail(r3.LeaseID, r3.Task.Key, "second attempt"); err != nil {
		t.Fatal(err)
	}
	if s := b.Stats(); s.Quarantined != 1 {
		t.Fatalf("attempts must survive the coordinator crash, got %+v", s)
	}
}

// TestTornLedgerWrite arms the ledger's torn-write failpoint: the
// interrupted result commit must not be visible after reopen, and the
// task re-runs.
func TestTornLedgerWrite(t *testing.T) {
	reg := faultinject.New(7)
	if err := reg.Enable("ledger.write=torn#1"); err != nil {
		t.Fatal(err)
	}
	old := faultinject.Swap(reg)
	restored := false
	restore := func() {
		if !restored {
			faultinject.Swap(old)
			restored = true
		}
	}
	defer restore()

	clk := newFakeClock()
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	c, err := NewCoordinator([]Task{expTask("E1")}, path, testOptions(clk))
	if err != nil {
		t.Fatal(err)
	}
	r, _ := c.Lease("w1")
	if r.Task == nil {
		t.Fatalf("lease: %+v", r)
	}
	// The commit's ledger write tears; the coordinator degrades to an
	// in-memory completion rather than failing the worker.
	if err := c.Complete(r.LeaseID, r.Task.Key, json.RawMessage(`["x"]`)); err != nil {
		t.Fatalf("torn write must degrade, not error: %v", err)
	}
	if s := c.Stats(); s.Done != 1 {
		t.Fatalf("in-memory completion expected, got %+v", s)
	}
	c.Close()
	restore()

	// After a coordinator crash the torn tail is truncated away: the
	// result was never durable, so the task is pending again.
	b, err := NewCoordinator([]Task{expTask("E1")}, path, testOptions(clk))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if s := b.Stats(); s.Done != 0 || s.CacheHits != 0 || s.Pending != 1 {
		t.Fatalf("torn result must not survive reopen, got %+v", s)
	}
}

func TestHTTPTransport(t *testing.T) {
	clk := newFakeClock()
	c, err := NewCoordinator([]Task{expTask("E1")}, filepath.Join(t.TempDir(), "ledger.jsonl"), testOptions(clk))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL}

	r, err := client.Lease("w1")
	if err != nil || r.Task == nil || r.Task.Key != "E1/scale=1" {
		t.Fatalf("lease over HTTP: %+v, %v", r, err)
	}
	if err := client.Heartbeat(r.LeaseID); err != nil {
		t.Fatalf("heartbeat over HTTP: %v", err)
	}
	if err := client.Complete(r.LeaseID, r.Task.Key, json.RawMessage(`[]`)); err == nil {
		t.Fatal("complete over HTTP accepted a result with no table")
	}
	if err := client.Complete(r.LeaseID, r.Task.Key, json.RawMessage(`[{"ID":"E1"}]`)); err != nil {
		t.Fatalf("complete over HTTP: %v", err)
	}
	// The lease is resolved, so a heartbeat now maps 410 Gone back to
	// ErrLeaseExpired.
	if err := client.Heartbeat(r.LeaseID); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("want ErrLeaseExpired over HTTP, got %v", err)
	}
	if r2, err := client.Lease("w1"); err != nil || !r2.Done {
		t.Fatalf("want Done reply, got %+v, %v", r2, err)
	}
	s, err := client.Status()
	if err != nil || s.Done != 1 || s.Commits != 1 {
		t.Fatalf("status over HTTP: %+v, %v", s, err)
	}
}

// TestRunSweepMatchesExecuteSweep is the small-scale equivalence
// check: a fabric sweep's merged result is bit-identical to a plain
// single-process sweep, with and without a point deadline, and a
// re-run over the same ledger is all cache hits with zero re-execution.
// OnCommit sees each executed task once and no cache hit.
func TestRunSweepMatchesExecuteSweep(t *testing.T) {
	ctx := context.Background()
	for _, spec := range []engine.SweepSpec{
		{Run: []string{"E1"}},
		{Run: []string{"E1"}, Deadline: time.Nanosecond},
	} {
		baseline, err := engine.ExecuteSweep(ctx, spec, engine.SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var committed []string
		opts := RunSweepOptions{
			StateDir:    t.TempDir(),
			Workers:     2,
			Coordinator: Options{CodeVersion: "test", LeaseTTL: 5 * time.Second},
			Logf:        t.Logf,
			OnCommit:    func(task Task) { committed = append(committed, task.Key) },
		}
		got, stats, err := RunSweep(ctx, spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, _ := json.Marshal(baseline)
		gotJSON, _ := json.Marshal(got)
		if string(wantJSON) != string(gotJSON) {
			t.Fatalf("deadline %v: fabric sweep diverged from single-process sweep:\nwant %s\ngot  %s", spec.Deadline, wantJSON, gotJSON)
		}
		if stats.Commits != 1 || stats.CacheHits != 0 {
			t.Fatalf("deadline %v: first run must execute, got %+v", spec.Deadline, stats)
		}
		if len(committed) != 1 || committed[0] != "E1/scale=1" {
			t.Fatalf("deadline %v: OnCommit saw %v, want [E1/scale=1]", spec.Deadline, committed)
		}

		got2, stats2, err := RunSweep(ctx, spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON2, _ := json.Marshal(got2)
		if string(wantJSON) != string(gotJSON2) {
			t.Fatalf("deadline %v: cached fabric sweep diverged:\nwant %s\ngot  %s", spec.Deadline, wantJSON, gotJSON2)
		}
		if stats2.CacheHits != 1 || stats2.Commits != 0 || stats2.LeasesGranted != 0 {
			t.Fatalf("deadline %v: re-run must be 100%% cache hits with zero execution, got %+v", spec.Deadline, stats2)
		}
		if len(committed) != 1 {
			t.Fatalf("deadline %v: OnCommit fired for a cache hit: %v", spec.Deadline, committed)
		}
	}
}

// TestCacheHitsNeedCodeVersion: a ledger serves its results only to a
// coordinator that knows which code computed them. Without
// PRAM_CODE_VERSION a test binary has no code version (it carries no
// VCS stamp), so a second sweep over the same ledger executes every
// task again, and neither sweep writes a result no coordinator could
// serve; with the variable set, every task is a cache hit, and the
// ledger holds one result per task.
func TestCacheHitsNeedCodeVersion(t *testing.T) {
	ctx := context.Background()
	spec := engine.SweepSpec{Run: []string{"E1", "E4"}}
	sweep := func(dir string) Stats {
		t.Helper()
		_, stats, err := RunSweep(ctx, spec, RunSweepOptions{StateDir: dir, Workers: 1, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}

	t.Setenv("PRAM_CODE_VERSION", "")
	if v := CodeVersion(); v != "" {
		t.Fatalf("CodeVersion() = %q in a test binary without PRAM_CODE_VERSION, want \"\"", v)
	}
	dir := t.TempDir()
	sweep(dir)
	if s := sweep(dir); s.Commits != 2 || s.CacheHits != 0 {
		t.Fatalf("without a code version the second sweep must execute both tasks, got %+v", s)
	}
	if n := ledgerResultCount(t, filepath.Join(dir, "ledger.jsonl")); n != 0 {
		t.Fatalf("two sweeps without a code version left %d result entries in the ledger, want 0", n)
	}

	t.Setenv("PRAM_CODE_VERSION", "test")
	dir = t.TempDir()
	sweep(dir)
	if s := sweep(dir); s.CacheHits != 2 || s.Commits != 0 || s.LeasesGranted != 0 {
		t.Fatalf("with a code version the second sweep must be all cache hits, got %+v", s)
	}
	if n := ledgerResultCount(t, filepath.Join(dir, "ledger.jsonl")); n != 2 {
		t.Fatalf("two sweeps with a code version left %d result entries in the ledger, want 2", n)
	}
}

// TestCleanRevision: only a stamp that records an unmodified tree
// names the code.
func TestCleanRevision(t *testing.T) {
	rev := debug.BuildSetting{Key: "vcs.revision", Value: "abc123"}
	for _, tt := range []struct {
		name     string
		settings []debug.BuildSetting
		want     string
	}{
		{"unmodified", []debug.BuildSetting{rev, {Key: "vcs.modified", Value: "false"}}, "abc123"},
		{"modified", []debug.BuildSetting{rev, {Key: "vcs.modified", Value: "true"}}, ""},
		{"no-modified-flag", []debug.BuildSetting{rev}, ""},
		{"no-stamp", nil, ""},
	} {
		if got := cleanRevision(tt.settings); got != tt.want {
			t.Errorf("%s: cleanRevision = %q, want %q", tt.name, got, tt.want)
		}
	}
}

// TestRunSweepReturnsWhenDone pins that an in-process pool stops as
// soon as the Do-All is done. With two workers on two tasks, the
// worker that finishes first finds the other task leased and sleeps
// out a retry interval of LeaseTTL/4 (15s here); RunSweep must not
// wait for it.
func TestRunSweepReturnsWhenDone(t *testing.T) {
	start := time.Now()
	_, stats, err := RunSweep(context.Background(), engine.SweepSpec{Run: []string{"E1", "E4"}}, RunSweepOptions{
		StateDir:    t.TempDir(),
		Workers:     3,
		Coordinator: Options{CodeVersion: "test", LeaseTTL: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Done != 2 {
		t.Fatalf("sweep finished with %+v, want two tasks done", stats)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("RunSweep took %v after a 2-task Do-All; an idle worker held it up", took)
	}
}

// TestPoolSize pins how RunSweep splits its Workers budget: never more
// workers than pending tasks, however large the budget (a remote spec
// sets it), and the unstarted share goes to each task's points.
func TestPoolSize(t *testing.T) {
	for _, c := range []struct{ budget, pending, workers, parallel int }{
		{1, 3, 1, 1},
		{2, 3, 2, 1},
		{2, 1, 1, 2},
		{16, 3, 3, 5},
		{4, 0, 1, 4},
		{1_000_000_000, 1, 1, 1_000_000_000},
		{1_000_000_000, 18, 18, 55_555_555},
	} {
		w, p := poolSize(c.budget, c.pending)
		if w != c.workers || p != c.parallel {
			t.Errorf("poolSize(%d, %d) = (%d, %d), want (%d, %d)", c.budget, c.pending, w, p, c.workers, c.parallel)
		}
	}
}

// TestGaugesSumAcrossCoordinators runs two coordinators on one
// registry, as pramd does with concurrent sweep jobs: the pending and
// live-worker gauges read the sums of their counts and return to zero
// once both close.
func TestGaugesSumAcrossCoordinators(t *testing.T) {
	old := fObs.Load()
	defer fObs.Store(old)
	reg := obs.NewRegistry()
	EnableObs(reg)
	gauges := func() (pending, live float64) {
		pending, _ = reg.Value(obs.MetricFabricTasksPending)
		live, _ = reg.Value(obs.MetricFabricWorkersLive)
		return pending, live
	}
	want := func(stage string, pending, live float64) {
		t.Helper()
		if p, l := gauges(); p != pending || l != live {
			t.Errorf("%s: pending %v, workers live %v; want %v, %v", stage, p, l, pending, live)
		}
	}

	clk := newFakeClock()
	dir := t.TempDir()
	a, err := NewCoordinator([]Task{expTask("E1"), expTask("E4")}, filepath.Join(dir, "a.jsonl"), testOptions(clk))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCoordinator([]Task{expTask("E13")}, filepath.Join(dir, "b.jsonl"), testOptions(clk))
	if err != nil {
		t.Fatal(err)
	}
	want("opened", 3, 0)

	ra, err := a.Lease("wa")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Lease("wb"); err != nil {
		t.Fatal(err)
	}
	want("leased", 3, 2)

	if err := a.Complete(ra.LeaseID, ra.Task.Key, json.RawMessage(`[]`)); err != nil {
		t.Fatal(err)
	}
	want("one committed", 2, 1)

	a.Close()
	want("a closed", 1, 1)
	b.Close()
	want("both closed", 0, 0)
}
