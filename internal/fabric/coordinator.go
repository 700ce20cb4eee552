package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bench"
)

// ErrLeaseExpired is returned by Heartbeat (and mapped across HTTP)
// when the lease is unknown, expired, or its task already resolved: the
// worker's claim is void and it must abandon the execution.
var ErrLeaseExpired = errors.New("fabric: lease expired")

// Ledger key prefixes. The ledger is a bench.Journal (append-only,
// fsync'd, torn-tail-tolerant) replayed last-wins on open:
//
//	result/<cachekey>     -> raw result JSON (written once; the cache)
//	attempts/<taskkey>    -> cumulative failed attempts
//	quarantine/<taskkey>  -> cause string (task is poisoned)
const (
	resultPrefix     = "result/"
	attemptsPrefix   = "attempts/"
	quarantinePrefix = "quarantine/"
)

// ledgerScope is the faultinject scope of the coordinator's ledger
// file, exposing ledger.open / ledger.write / ledger.sync failpoints
// distinct from the strategy search journal's.
const ledgerScope = "ledger"

// Options tunes a Coordinator. The zero value gets usable defaults.
type Options struct {
	// MaxAttempts quarantines a task after this many failed attempts
	// (default 3). A quarantined task is reported as degraded, like a
	// failed sweep point, instead of blocking the Do-All forever.
	MaxAttempts int
	// LeaseTTL is how long a lease lives without a heartbeat
	// (default 10s). Heartbeats extend the deadline by one TTL.
	LeaseTTL time.Duration
	// Backoff is the base retry delay (default 100ms); attempt k waits
	// Backoff<<(k-1) plus deterministic jitter, capped at MaxBackoff
	// (default 5s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Seed feeds the jitter; runs with equal seeds back off
	// identically.
	Seed int64
	// CodeVersion binds cache keys ("" = CodeVersion()). A coordinator
	// left without one serves no cache hits and writes no results to
	// the ledger: it still commits each result in memory, and still
	// records attempts and quarantines.
	CodeVersion string
	// Logf receives coordinator notices; nil discards them.
	Logf func(format string, args ...any)
	// Now is the clock (nil = time.Now). Tests inject a fake clock to
	// pin lease-expiry edge cases.
	Now func() time.Time
}

func (o *Options) fill() {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.CodeVersion == "" {
		o.CodeVersion = CodeVersion()
	}
	if o.Now == nil {
		o.Now = time.Now
	}
}

// Stats is a snapshot of the coordinator's accounting; the same
// quantities feed the fabric_* metrics.
type Stats struct {
	// Tasks is the Do-All size; Done counts committed tasks (executed
	// or cache hit); Quarantined counts poisoned tasks; Pending is the
	// remainder.
	Tasks       int `json:"tasks"`
	Done        int `json:"done"`
	Quarantined int `json:"quarantined"`
	Pending     int `json:"pending"`
	// CacheHits counts tasks satisfied from the ledger's result cache
	// (at recovery) instead of execution.
	CacheHits int `json:"cache_hits"`
	// Lease traffic.
	LeasesGranted int `json:"leases_granted"`
	LeasesExpired int `json:"leases_expired"`
	Heartbeats    int `json:"heartbeats"`
	// Retries counts attempts re-queued after a failure or an expired
	// lease; Commits counts committed results (written to the ledger
	// when the coordinator has a code version); DuplicateCommits
	// counts late or duplicate completions suppressed by the
	// at-most-once rule.
	Retries          int `json:"retries"`
	Commits          int `json:"commits"`
	DuplicateCommits int `json:"duplicate_commits"`
	// WorkersLive counts workers holding at least one unexpired lease.
	WorkersLive int `json:"workers_live"`
}

// taskState is the coordinator's view of one task.
type taskState struct {
	task        Task
	cacheKey    string
	attempts    int
	done        bool
	quarantined bool
	cause       string
	notBefore   time.Time // backoff gate: no lease before this instant
	leaseID     string    // active lease ("" = unleased)
}

// lease is one worker's revocable claim on a task.
type lease struct {
	id       string
	worker   string
	taskKey  string
	deadline time.Time
}

// Coordinator schedules a fixed task list across workers using
// lease-based ownership, retry with backoff and quarantine, and an
// at-most-once, content-addressed result commit. All state changes are
// recorded in the ledger first, so a coordinator crash loses nothing:
// NewCoordinator on the same ledger resumes where the old one died.
type Coordinator struct {
	opts Options

	mu      sync.Mutex
	ledger  *bench.Journal
	tasks   []Task
	state   map[string]*taskState
	leases  map[string]*lease
	results map[string]json.RawMessage // by task key; mirror of ledger + degraded commits
	seq     uint64
	stats   Stats
	// shown is this coordinator's share of the process-wide pending and
	// live-worker gauges; closed stops it publishing more.
	shown  [2]int64
	closed bool
}

// NewCoordinator opens (or resumes) a coordinator over the ledger at
// ledgerPath for the given task list. Results already present in the
// ledger under the current code version count as cache hits and are
// not re-executed (none do without a code version); recorded attempts
// and quarantines carry over.
func NewCoordinator(tasks []Task, ledgerPath string, opts Options) (*Coordinator, error) {
	opts.fill()
	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			return nil, err
		}
	}
	ledger, err := bench.OpenJournalScope(ledgerPath, ledgerScope)
	if err != nil {
		return nil, fmt.Errorf("fabric: open ledger: %w", err)
	}
	c := &Coordinator{
		opts:    opts,
		ledger:  ledger,
		tasks:   tasks,
		state:   make(map[string]*taskState, len(tasks)),
		leases:  make(map[string]*lease),
		results: make(map[string]json.RawMessage, len(tasks)),
	}
	c.stats.Tasks = len(tasks)
	cached := opts.CodeVersion != ""
	if !cached {
		c.logf("fabric: no code version (set PRAM_CODE_VERSION, or build from an unmodified checkout); serving no cached results")
	}
	for _, t := range tasks {
		if _, dup := c.state[t.Key]; dup {
			ledger.Close()
			return nil, fmt.Errorf("fabric: duplicate task key %q", t.Key)
		}
		st := &taskState{task: t, cacheKey: CacheKey(t, opts.CodeVersion)}
		if cached {
			var raw json.RawMessage
			if ok, err := ledger.Get(resultPrefix+st.cacheKey, &raw); err != nil {
				ledger.Close()
				return nil, err
			} else if ok {
				st.done = true
				c.results[t.Key] = raw
				c.stats.Done++
				c.stats.CacheHits++
				obsCacheHit()
			}
		}
		if ok, err := ledger.Get(attemptsPrefix+t.Key, &st.attempts); err != nil {
			ledger.Close()
			return nil, err
		} else if ok && !st.done && st.attempts > 0 {
			// Recovered attempts re-enter the backoff schedule.
			st.notBefore = opts.Now().Add(c.backoff(t.Key, st.attempts))
		}
		if ok, err := ledger.Get(quarantinePrefix+t.Key, &st.cause); err != nil {
			ledger.Close()
			return nil, err
		} else if ok && !st.done {
			st.quarantined = true
			c.stats.Quarantined++
		}
		c.state[t.Key] = st
	}
	c.stats.Pending = c.stats.Tasks - c.stats.Done - c.stats.Quarantined
	obsTasks(c.stats.Tasks)
	c.publishGauges()
	return c, nil
}

// Close releases the ledger file and withdraws the coordinator's share
// of the gauges. In-flight workers observe a closed coordinator as
// lease errors and back off; a successor coordinator on the same
// ledger picks the work up.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	obsGauges(&c.shown, 0, 0)
	c.closed = true
	return c.ledger.Close()
}

// publishGauges moves this coordinator's share of the pending and
// live-worker gauges to its current counts, so each gauge reads the
// sum over the process's open coordinators. Callers hold c.mu.
func (c *Coordinator) publishGauges() {
	if !c.closed {
		obsGauges(&c.shown, int64(c.stats.Pending), int64(c.workersLive()))
	}
}

// Stats returns a consistent snapshot of the accounting.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.publishGauges()
	c.expireLeases()
	s := c.stats
	s.WorkersLive = c.workersLive()
	return s
}

// workersLive counts distinct workers holding an unexpired lease.
// Callers hold c.mu.
func (c *Coordinator) workersLive() int {
	seen := make(map[string]bool, len(c.leases))
	for _, l := range c.leases {
		seen[l.worker] = true
	}
	return len(seen)
}

// logf routes a notice to Options.Logf, if any.
func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// backoff returns the delay before attempt n+1 of taskKey may be
// leased again: exponential in the attempt count with deterministic
// jitter (splitmix over seed, task key, and attempt), capped at
// MaxBackoff. Jitter spreads simultaneous retries without breaking
// reproducibility: equal seeds yield equal schedules.
func (c *Coordinator) backoff(taskKey string, attempts int) time.Duration {
	d := c.opts.Backoff
	for i := 1; i < attempts && d < c.opts.MaxBackoff; i++ {
		d <<= 1
	}
	if d > c.opts.MaxBackoff {
		d = c.opts.MaxBackoff
	}
	// Jitter in [0, d/2): splitmix64 over the identifying tuple.
	x := uint64(c.opts.Seed) ^ hash64(taskKey) ^ (uint64(attempts) * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if half := uint64(d / 2); half > 0 {
		d += time.Duration(x % half)
	}
	return d
}

// hash64 is FNV-1a, inlined to keep fabric's dependencies flat.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// expireLeases reclaims every lease whose deadline has passed. An
// expired lease is indistinguishable from a worker crash, so it takes
// the failure path: attempt counted, backoff applied, quarantine after
// MaxAttempts. Expiry is strict (now must be *after* the deadline): a
// heartbeat arriving exactly at the deadline is honored. Callers hold
// c.mu.
func (c *Coordinator) expireLeases() {
	now := c.opts.Now()
	for id, l := range c.leases {
		if !now.After(l.deadline) {
			continue
		}
		delete(c.leases, id)
		c.stats.LeasesExpired++
		obsLeaseExpired()
		st := c.state[l.taskKey]
		if st == nil || st.done || st.quarantined || st.leaseID != id {
			continue
		}
		st.leaseID = ""
		c.recordFailure(st, fmt.Sprintf("lease %s expired: worker %s missed its heartbeat", id, l.worker))
	}
}

// recordFailure counts one failed attempt of st, persists the count,
// and either quarantines the task or schedules its retry. Callers hold
// c.mu.
func (c *Coordinator) recordFailure(st *taskState, cause string) {
	st.attempts++
	if err := c.ledger.Put(attemptsPrefix+st.task.Key, st.attempts); err != nil {
		// Degraded: the count survives in memory; a coordinator crash
		// forgets some attempts, which only delays quarantine.
		c.logf("fabric: record attempt for %s: %v", st.task.Key, err)
	}
	if st.attempts >= c.opts.MaxAttempts {
		st.quarantined = true
		st.cause = fmt.Sprintf("quarantined after %d attempts: %s", st.attempts, cause)
		if err := c.ledger.Put(quarantinePrefix+st.task.Key, st.cause); err != nil {
			c.logf("fabric: record quarantine for %s: %v", st.task.Key, err)
		}
		c.stats.Quarantined++
		c.stats.Pending--
		obsQuarantined()
		c.logf("fabric: %s", st.cause)
		return
	}
	delay := c.backoff(st.task.Key, st.attempts)
	st.notBefore = c.opts.Now().Add(delay)
	c.stats.Retries++
	obsRetry()
	c.logf("fabric: task %s attempt %d failed (%s); retry in %v", st.task.Key, st.attempts, cause, delay)
}

// LeaseReply is the coordinator's answer to a lease request. Exactly
// one of three shapes: Done (the Do-All is complete — every task
// committed or quarantined), a Task under a fresh lease, or
// RetryAfter (nothing leasable right now: all pending tasks are
// leased out or backing off).
type LeaseReply struct {
	Done       bool          `json:"done,omitempty"`
	LeaseID    string        `json:"lease_id,omitempty"`
	Task       *Task         `json:"task,omitempty"`
	TTL        time.Duration `json:"ttl_ns,omitempty"`
	RetryAfter time.Duration `json:"retry_after_ns,omitempty"`
}

// Lease hands the requesting worker the first available task under a
// fresh lease. Tasks are scanned in list order; a task is available
// when it is neither done, quarantined, nor leased, and its backoff
// gate has passed.
func (c *Coordinator) Lease(workerID string) (LeaseReply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.publishGauges()
	c.expireLeases()
	now := c.opts.Now()

	if c.stats.Done+c.stats.Quarantined == c.stats.Tasks {
		return LeaseReply{Done: true}, nil
	}

	var soonest time.Duration = -1
	for _, t := range c.tasks {
		st := c.state[t.Key]
		if st.done || st.quarantined || st.leaseID != "" {
			continue
		}
		if now.Before(st.notBefore) {
			if wait := st.notBefore.Sub(now); soonest < 0 || wait < soonest {
				soonest = wait
			}
			continue
		}
		c.seq++
		l := &lease{
			id:       fmt.Sprintf("L%d-%s", c.seq, workerID),
			worker:   workerID,
			taskKey:  t.Key,
			deadline: now.Add(c.opts.LeaseTTL),
		}
		c.leases[l.id] = l
		st.leaseID = l.id
		c.stats.LeasesGranted++
		obsLeaseGranted()
		task := st.task
		return LeaseReply{LeaseID: l.id, Task: &task, TTL: c.opts.LeaseTTL}, nil
	}
	// Nothing leasable: workers poll again after the soonest backoff
	// gate, or a fraction of the TTL when everything is leased out.
	if soonest < 0 {
		soonest = c.opts.LeaseTTL / 4
	}
	return LeaseReply{RetryAfter: soonest}, nil
}

// Heartbeat extends the lease's deadline by one TTL. A heartbeat that
// arrives exactly at the deadline is honored; one that arrives later —
// or for a lease the coordinator no longer recognizes (expired,
// resolved, or predating a coordinator restart) — returns
// ErrLeaseExpired so the worker abandons the execution.
func (c *Coordinator) Heartbeat(leaseID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.publishGauges()
	c.expireLeases()
	l, ok := c.leases[leaseID]
	if !ok {
		return ErrLeaseExpired
	}
	l.deadline = c.opts.Now().Add(c.opts.LeaseTTL)
	c.stats.Heartbeats++
	obsHeartbeat()
	return nil
}

// Complete commits a task result. The commit is at-most-once and
// keyed by content address: the first completion for a task wins, and
// every later one — a worker finishing after its lease expired and the
// task was reassigned, a retry racing the original — is suppressed and
// counted, never written. The lease does NOT gate the commit: a late
// result from a voided lease is still valid work (determinism makes it
// identical to any other execution of the task), so it commits if and
// only if no result is recorded yet.
func (c *Coordinator) Complete(leaseID, taskKey string, result json.RawMessage) error {
	_, err := c.commit(leaseID, taskKey, result)
	return err
}

// commit is Complete, returning the task it committed, or nil when the
// completion was a suppressed duplicate.
func (c *Coordinator) commit(leaseID, taskKey string, result json.RawMessage) (*Task, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.publishGauges()
	c.expireLeases()
	st, ok := c.state[taskKey]
	if !ok {
		return nil, fmt.Errorf("fabric: complete for unknown task %q", taskKey)
	}
	c.releaseLease(leaseID, st)
	if st.done {
		c.stats.DuplicateCommits++
		obsDuplicateCommit()
		return nil, nil
	}
	// No coordinator serves a result keyed by no code version, so a
	// versionless coordinator keeps its results in memory only.
	if c.opts.CodeVersion != "" {
		if err := c.ledger.Put(resultPrefix+st.cacheKey, result); err != nil {
			// Degraded: the result lives only in memory. Correct but not
			// durable — a coordinator crash re-runs this task, and
			// determinism reproduces the same result.
			c.logf("fabric: commit %s not durable: %v", taskKey, err)
		}
	}
	st.done = true
	if st.quarantined {
		// A quarantined task that still produced a result (a very late
		// completion) is rehabilitated: done supersedes quarantined.
		st.quarantined = false
		st.cause = ""
		c.stats.Quarantined--
		c.stats.Pending++
	}
	c.results[taskKey] = result
	c.stats.Done++
	c.stats.Pending--
	c.stats.Commits++
	obsCommit()
	return &st.task, nil
}

// Fail reports a failed execution attempt. Like Complete it tolerates
// voided leases; a failure for an already-committed task is ignored.
func (c *Coordinator) Fail(leaseID, taskKey, cause string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.publishGauges()
	c.expireLeases()
	st, ok := c.state[taskKey]
	if !ok {
		return fmt.Errorf("fabric: failure report for unknown task %q", taskKey)
	}
	held := st.leaseID == leaseID && leaseID != ""
	c.releaseLease(leaseID, st)
	if st.done || st.quarantined {
		return nil
	}
	if !held {
		// The lease already expired: expireLeases counted this attempt
		// when it reclaimed the lease, so counting the worker's own
		// report too would double-bill the task.
		return nil
	}
	c.recordFailure(st, cause)
	return nil
}

// releaseLease drops leaseID if it is the active claim on st. Callers
// hold c.mu.
func (c *Coordinator) releaseLease(leaseID string, st *taskState) {
	if leaseID == "" {
		return
	}
	if l, ok := c.leases[leaseID]; ok && l.taskKey == st.task.Key {
		delete(c.leases, leaseID)
		if st.leaseID == leaseID {
			st.leaseID = ""
		}
	}
}

// Result returns the committed result for a task key, if any.
func (c *Coordinator) Result(taskKey string) (json.RawMessage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	raw, ok := c.results[taskKey]
	return raw, ok
}

// Quarantined returns the poisoned tasks as key->cause, for degraded
// reporting.
func (c *Coordinator) Quarantined() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string)
	for k, st := range c.state {
		if st.quarantined {
			out[k] = st.cause
		}
	}
	return out
}

// Tasks returns the coordinator's task list in schedule order.
func (c *Coordinator) Tasks() []Task {
	out := make([]Task, len(c.tasks))
	copy(out, c.tasks)
	return out
}
