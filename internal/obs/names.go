package obs

// The stable metric names of the harness. Names are interface: DESIGN.md
// §11 documents each one, the debug server exposes them verbatim, and
// the progress reporter looks them up by these constants. Instrumented
// packages register under these names so a rename is a single-point,
// grep-able change.
const (
	// pram.Machine — the paper's accounting (Definitions 2.2–2.3),
	// aggregated across every machine in the process.
	MetricTicks      = "pram_ticks_total"             // synchronous steps executed
	MetricCompleted  = "pram_cycles_completed_total"  // completed update cycles: S (Def. 2.2)
	MetricIncomplete = "pram_cycles_incomplete_total" // killed-in-progress cycles: S' − S (Remark 2)
	MetricFailures   = "pram_failures_total"          // failure events (half of |F|, Def. 2.1)
	MetricRestarts   = "pram_restarts_total"          // restart events (other half of |F|)
	MetricVetoes     = "pram_vetoes_total"            // liveness-rule vetoes
	MetricViolations = "pram_violations_total"        // adversary contract violations recorded
	MetricRuns       = "pram_runs_total"              // runs terminated (success or error)
	MetricRunErrors  = "pram_run_errors_total"        // runs terminated with an error
	MetricBatches    = "pram_batches_total"           // quiet windows committed by TickBatch

	// Live position of the most recent machine to finish a tick. With
	// concurrent machines (a parallel sweep) these are last-writer-wins
	// spot values: liveness signals, not accounting.
	MetricTick          = "pram_machine_tick"         // current tick of the latest machine
	MetricDoneCells     = "pram_done_cells"           // Write-All cells tracked by the done hint (0 = no hint)
	MetricDoneRemaining = "pram_done_remaining"       // hinted cells still unset
	MetricSigmaMilli    = "pram_overhead_sigma_milli" // live σ = S/(N+|F|) of the latest machine, ×1000
	MetricBatchWindow   = "pram_batch_window_ticks"   // ticks advanced by the latest quiet window

	// pram.Runner — checkpointing.
	MetricCheckpoints         = "pram_checkpoints_total"          // checkpoints saved
	MetricCheckpointGen       = "pram_checkpoint_generation"      // tick of the newest checkpoint
	MetricCheckpointAge       = "pram_checkpoint_age_seconds"     // wall-clock age of newest checkpoint (−1 before the first)
	MetricCheckpointSaveNs    = "pram_checkpoint_save_ns"         // histogram of checkpoint save durations
	MetricResumes             = "pram_resumes_total"              // runs resumed from a snapshot
	MetricCheckpointFallbacks = "pram_checkpoint_fallbacks_total" // resumes that fell back a generation

	// internal/bench — sweep progress.
	MetricPoints         = "bench_points_total"          // sweep points completed (either outcome)
	MetricPointsDegraded = "bench_points_degraded_total" // points degraded to Table.Errors rows
	MetricPointsDeadline = "bench_points_deadline_total" // points canceled or abandoned by the watchdog
	MetricPointsInflight = "bench_points_inflight"       // points currently executing
	MetricPointNs        = "bench_point_ns"              // histogram of per-point wall time
	MetricExperiments    = "bench_experiments_total"     // experiment tables completed

	// internal/faultinject — emitted by a collector, one pair per armed
	// point: faultinject_hits_total{point="..."} and
	// faultinject_fires_total{point="..."}.
	MetricFaultHitsPrefix  = "faultinject_hits_total"
	MetricFaultFiresPrefix = "faultinject_fires_total"

	// internal/jobs — the run service's queue and lifecycle.
	MetricJobsQueued    = "jobs_queued"          // jobs waiting in the queue
	MetricJobsRunning   = "jobs_running"         // jobs currently executing
	MetricJobsSubmitted = "jobs_submitted_total" // jobs accepted by Submit
	MetricJobsCompleted = "jobs_completed_total" // jobs finished in state done
	MetricJobsFailed    = "jobs_failed_total"    // jobs finished in state failed
	MetricJobsCanceled  = "jobs_canceled_total"  // jobs finished in state canceled
	MetricJobsResumed   = "jobs_resumed_total"   // interrupted jobs re-enqueued by crash recovery

	// internal/advlab — the adversary strategy lab.
	MetricLabMatches        = "advlab_matches_total"         // tournament matches completed (either outcome)
	MetricLabMatchErrors    = "advlab_match_errors_total"    // matches that ended in a run error
	MetricLabSearchIters    = "advlab_search_iters_total"    // strategy-search iterations scored
	MetricLabSearchReplayed = "advlab_search_replayed_total" // iterations served from the journal on resume
	MetricLabSearchImproved = "advlab_search_improved_total" // iterations that improved the best-so-far
	MetricLabBestSigmaMilli = "advlab_best_sigma_milli"      // best σ found by the latest search, ×1000

	// internal/fabric — the distributed sweep coordinator (Do-All over
	// crash-prone workers).
	MetricFabricTasks            = "fabric_tasks_total"             // tasks enqueued at coordinator start
	MetricFabricTasksDone        = "fabric_tasks_done_total"        // tasks committed (executed or cache hit)
	MetricFabricTasksPending     = "fabric_tasks_pending"           // tasks not yet committed or quarantined
	MetricFabricLeases           = "fabric_leases_granted_total"    // leases handed to workers
	MetricFabricLeasesExpired    = "fabric_leases_expired_total"    // leases reclaimed after a missed heartbeat
	MetricFabricHeartbeats       = "fabric_heartbeats_total"        // heartbeats honored (lease extended)
	MetricFabricRetries          = "fabric_retries_total"           // task attempts re-queued after failure or expiry
	MetricFabricQuarantined      = "fabric_quarantined_total"       // tasks quarantined after MaxAttempts
	MetricFabricCacheHits        = "fabric_cache_hits_total"        // tasks satisfied from the content-addressed ledger
	MetricFabricCommits          = "fabric_commits_total"           // results durably committed to the ledger
	MetricFabricDuplicateCommits = "fabric_duplicate_commits_total" // late/duplicate completions suppressed (at-most-once)
	MetricFabricWorkersLive      = "fabric_workers_live"            // workers with at least one unexpired lease
)
