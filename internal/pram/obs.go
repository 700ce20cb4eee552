package pram

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// machineObs holds the process-wide observability hooks of the pram
// layer. It is nil until EnableObs installs one, and every field's
// methods are nil-safe, so with observability off the hot path pays one
// atomic pointer load and a branch per tick — nothing per cycle, and no
// allocations either way. Counters aggregate across every machine in
// the process; the spot gauges (tick, done fraction, σ) are
// last-writer-wins liveness signals from whichever machine most
// recently finished a tick.
type machineObs struct {
	ticks      *obs.Counter
	completed  *obs.Counter
	incomplete *obs.Counter
	failures   *obs.Counter
	restarts   *obs.Counter
	vetoes     *obs.Counter
	violations *obs.Counter
	runs       *obs.Counter
	runErrors  *obs.Counter

	batches *obs.Counter

	tick          *obs.Gauge
	doneCells     *obs.Gauge
	doneRemaining *obs.Gauge
	sigmaMilli    *obs.Gauge
	batchWindow   *obs.Gauge

	checkpoints   *obs.Counter
	checkpointGen *obs.Gauge
	saveNs        *obs.Histogram
	resumes       *obs.Counter
	fallbacks     *obs.Counter
}

var machObs atomic.Pointer[machineObs]

// lastCheckpointUnixNano feeds the checkpoint-age gauge; zero means no
// checkpoint has been saved yet this process.
var lastCheckpointUnixNano atomic.Int64

// EnableObs registers the pram layer's metrics in r and turns the
// machine/runner hooks on, process-wide. The metric names are the
// stable obs.Metric* constants (documented in DESIGN.md §11).
// Enabling twice with the same registry is idempotent; the hooks stay
// enabled for the life of the process.
func EnableObs(r *obs.Registry) {
	h := &machineObs{
		ticks:      r.Counter(obs.MetricTicks, "synchronous steps executed across all machines"),
		completed:  r.Counter(obs.MetricCompleted, "completed update cycles: S of Definition 2.2"),
		incomplete: r.Counter(obs.MetricIncomplete, "update cycles killed in progress: S' - S of Remark 2"),
		failures:   r.Counter(obs.MetricFailures, "processor failure events (Definition 2.1)"),
		restarts:   r.Counter(obs.MetricRestarts, "processor restart events (Definition 2.1)"),
		vetoes:     r.Counter(obs.MetricVetoes, "liveness-rule vetoes: failures the machine cancelled so one update cycle completes"),
		violations: r.Counter(obs.MetricViolations, "adversary contract violations recorded"),
		runs:       r.Counter(obs.MetricRuns, "machine runs terminated, successfully or not"),
		runErrors:  r.Counter(obs.MetricRunErrors, "machine runs terminated with an error"),

		batches: r.Counter(obs.MetricBatches, "quiet windows committed by TickBatch"),

		tick:          r.Gauge(obs.MetricTick, "current tick of the latest machine to finish a step"),
		doneCells:     r.Gauge(obs.MetricDoneCells, "Write-All cells tracked by the done hint (0 = no hint)"),
		doneRemaining: r.Gauge(obs.MetricDoneRemaining, "hinted cells still unset in the latest machine"),
		sigmaMilli:    r.Gauge(obs.MetricSigmaMilli, "overhead ratio sigma = S/(N+|F|) of the latest machine, x1000 (Definition 2.3)"),
		batchWindow:   r.Gauge(obs.MetricBatchWindow, "ticks advanced by the latest committed quiet window"),

		checkpoints:   r.Counter(obs.MetricCheckpoints, "checkpoints saved by Runners"),
		checkpointGen: r.Gauge(obs.MetricCheckpointGen, "tick of the newest saved checkpoint"),
		saveNs: r.Histogram(obs.MetricCheckpointSaveNs, "checkpoint save duration in nanoseconds",
			[]int64{1e5, 1e6, 1e7, 1e8, 1e9, 1e10}),
		resumes:   r.Counter(obs.MetricResumes, "runs resumed from a snapshot"),
		fallbacks: r.Counter(obs.MetricCheckpointFallbacks, "resumes that fell back to the previous checkpoint generation"),
	}
	r.GaugeFunc(obs.MetricCheckpointAge, "seconds since the newest checkpoint was saved (-1 before the first)",
		func() float64 {
			ns := lastCheckpointUnixNano.Load()
			if ns == 0 {
				return -1
			}
			return time.Since(time.Unix(0, ns)).Seconds()
		})
	machObs.Store(h)
}

// obsTick publishes one tick's accounting deltas; called once per tick
// from Step and deadTick alongside emitTick. before is the tick-start
// metrics copy both already keep.
func (m *Machine) obsTick(before Metrics) {
	h := machObs.Load()
	if h == nil {
		return
	}
	h.ticks.Inc()
	h.completed.Add(m.metrics.Completed - before.Completed)
	h.incomplete.Add(m.metrics.Incomplete - before.Incomplete)
	h.failures.Add(m.metrics.Failures - before.Failures)
	h.restarts.Add(m.metrics.Restarts - before.Restarts)
	h.vetoes.Add(m.metrics.Vetoes - before.Vetoes)
	h.tick.Set(int64(m.tick))
	if m.hintLen > 0 {
		h.doneCells.Set(int64(m.hintLen))
		h.doneRemaining.Set(int64(m.remaining))
	} else {
		h.doneCells.Set(0)
		h.doneRemaining.Set(0)
	}
	if den := int64(m.metrics.N) + m.metrics.FSize(); den > 0 {
		h.sigmaMilli.Set(m.metrics.Completed * 1000 / den)
	}
}

// obsBatch publishes one committed quiet window's accounting: ticks and
// completed cycles are added in bulk (a window is failure-free, so the
// failure/restart/veto deltas are zero by construction) and the window
// size feeds the batch-window gauge.
func (m *Machine) obsBatch(ticks int, before Metrics) {
	h := machObs.Load()
	if h == nil {
		return
	}
	h.ticks.Add(int64(ticks))
	h.completed.Add(m.metrics.Completed - before.Completed)
	h.batches.Inc()
	h.batchWindow.Set(int64(ticks))
	h.tick.Set(int64(m.tick))
	if m.hintLen > 0 {
		h.doneCells.Set(int64(m.hintLen))
		h.doneRemaining.Set(int64(m.remaining))
	}
	if den := int64(m.metrics.N) + m.metrics.FSize(); den > 0 {
		h.sigmaMilli.Set(m.metrics.Completed * 1000 / den)
	}
}

// obsRunDone counts a terminated run; called once per run from
// emitRunDone (which already de-duplicates via m.ended).
func (m *Machine) obsRunDone(err error) {
	h := machObs.Load()
	if h == nil {
		return
	}
	h.runs.Inc()
	if err != nil {
		h.runErrors.Inc()
	}
}

// obsViolation counts one adversary contract violation (cold path).
func obsViolation() {
	if h := machObs.Load(); h != nil {
		h.violations.Inc()
	}
}

// obsCheckpoint records one saved checkpoint: its tick (the generation
// gauge), its save duration, and the wall-clock instant feeding the age
// gauge.
func obsCheckpoint(tick int, dur time.Duration) {
	lastCheckpointUnixNano.Store(time.Now().UnixNano())
	h := machObs.Load()
	if h == nil {
		return
	}
	h.checkpoints.Inc()
	h.checkpointGen.Set(int64(tick))
	h.saveNs.Observe(int64(dur))
}

// obsResume counts a resumed run.
func obsResume() {
	if h := machObs.Load(); h != nil {
		h.resumes.Inc()
	}
}

// obsResumeFallback counts a resume that fell back to the previous
// checkpoint generation.
func obsResumeFallback() {
	if h := machObs.Load(); h != nil {
		h.fallbacks.Inc()
	}
}
