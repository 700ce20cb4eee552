package fabric

import (
	"sync/atomic"

	"repro/internal/obs"
)

// fabricObs holds the coordinator's metric hooks. Nil until EnableObs
// installs one; every hook site is nil-checked so an unobserved
// coordinator pays one atomic load per event.
type fabricObs struct {
	tasks         *obs.Counter
	done          *obs.Counter
	pending       *obs.Gauge
	leases        *obs.Counter
	leasesExpired *obs.Counter
	heartbeats    *obs.Counter
	retries       *obs.Counter
	quarantined   *obs.Counter
	cacheHits     *obs.Counter
	commits       *obs.Counter
	dupCommits    *obs.Counter
	workersLive   *obs.Gauge
}

var fObs atomic.Pointer[fabricObs]

// EnableObs registers the fabric coordinator's metrics in r and turns
// the hooks on, process-wide. Idempotent per registry; follows the
// bench.EnableObs pattern.
func EnableObs(r *obs.Registry) {
	fObs.Store(&fabricObs{
		tasks:         r.Counter(obs.MetricFabricTasks, "Do-All tasks enqueued at coordinator start"),
		done:          r.Counter(obs.MetricFabricTasksDone, "tasks committed, by execution or cache hit"),
		pending:       r.Gauge(obs.MetricFabricTasksPending, "tasks not yet committed or quarantined, summed over open coordinators"),
		leases:        r.Counter(obs.MetricFabricLeases, "leases granted to workers"),
		leasesExpired: r.Counter(obs.MetricFabricLeasesExpired, "leases reclaimed after a missed heartbeat"),
		heartbeats:    r.Counter(obs.MetricFabricHeartbeats, "heartbeats honored (lease extended)"),
		retries:       r.Counter(obs.MetricFabricRetries, "task attempts re-queued after failure or lease expiry"),
		quarantined:   r.Counter(obs.MetricFabricQuarantined, "tasks quarantined after MaxAttempts failures"),
		cacheHits:     r.Counter(obs.MetricFabricCacheHits, "tasks satisfied from the content-addressed result cache"),
		commits:       r.Counter(obs.MetricFabricCommits, "results durably committed to the ledger"),
		dupCommits:    r.Counter(obs.MetricFabricDuplicateCommits, "late or duplicate completions suppressed (at-most-once)"),
		workersLive:   r.Gauge(obs.MetricFabricWorkersLive, "workers holding at least one unexpired lease, summed over open coordinators"),
	})
}

// obsTasks counts a coordinator's task list (recovery cache hits are
// counted separately as they are discovered).
func obsTasks(n int) {
	if h := fObs.Load(); h != nil {
		h.tasks.Add(int64(n))
	}
}

// obsGauges moves one coordinator's share of the pending and
// live-worker gauges from *shown to the given counts. Each coordinator
// adds only its own deltas, so with several open in one process (one
// per pramd sweep job, plus -fabric-sweep's) the gauges read their sum.
func obsGauges(shown *[2]int64, pending, live int64) {
	if h := fObs.Load(); h != nil {
		h.pending.Add(pending - shown[0])
		h.workersLive.Add(live - shown[1])
		shown[0], shown[1] = pending, live
	}
}

func obsCacheHit() {
	if h := fObs.Load(); h != nil {
		h.cacheHits.Inc()
		h.done.Inc()
	}
}

func obsCommit() {
	if h := fObs.Load(); h != nil {
		h.commits.Inc()
		h.done.Inc()
	}
}

func obsDuplicateCommit() {
	if h := fObs.Load(); h != nil {
		h.dupCommits.Inc()
	}
}

func obsQuarantined() {
	if h := fObs.Load(); h != nil {
		h.quarantined.Inc()
	}
}

func obsRetry() {
	if h := fObs.Load(); h != nil {
		h.retries.Inc()
	}
}

func obsLeaseGranted() {
	if h := fObs.Load(); h != nil {
		h.leases.Inc()
	}
}

func obsLeaseExpired() {
	if h := fObs.Load(); h != nil {
		h.leasesExpired.Inc()
	}
}

func obsHeartbeat() {
	if h := fObs.Load(); h != nil {
		h.heartbeats.Inc()
	}
}
