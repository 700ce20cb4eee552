package bench

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/obs"
	"repro/internal/pram"
	"repro/internal/writeall"
)

func benchDeltas(reg *obs.Registry, names ...string) func() map[string]float64 {
	before := make(map[string]float64, len(names))
	for _, n := range names {
		before[n], _ = reg.Value(n)
	}
	return func() map[string]float64 {
		out := make(map[string]float64, len(names))
		for _, n := range names {
			v, _ := reg.Value(n)
			out[n] = v - before[n]
		}
		return out
	}
}

func TestEnableObsCountsPoints(t *testing.T) {
	reg := obs.NewRegistry()
	EnableObs(reg)
	delta := benchDeltas(reg, obs.MetricPoints, obs.MetricPointsDeadline, obs.MetricPointsInflight)

	if _, err := (Sweep{}).runWA(context.Background(), pram.Config{N: 32, P: 8},
		writeall.NewX(), adversary.None{}); err != nil {
		t.Fatalf("runWA: %v", err)
	}
	d := delta()
	if d[obs.MetricPoints] != 1 || d[obs.MetricPointsDeadline] != 0 {
		t.Errorf("deltas = %v, want points=1 deadline=0", d)
	}
	if v, _ := reg.Value(obs.MetricPointsInflight); v != 0 {
		t.Errorf("inflight gauge = %v after the point finished, want 0", v)
	}
	if v, _ := reg.Value(obs.MetricPointNs); v < 1 {
		t.Errorf("point duration histogram count = %v, want >= 1", v)
	}

	// A deadline-canceled point moves both the point and deadline counters.
	delta = benchDeltas(reg, obs.MetricPoints, obs.MetricPointsDeadline)
	_, err := Sweep{Deadline: 30 * time.Millisecond}.runWA(context.Background(), pram.Config{N: 64, P: 64, MaxTicks: 1 << 30},
		writeall.NewV(), &adversary.Thrashing{Rotate: true})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	d = delta()
	if d[obs.MetricPoints] != 1 || d[obs.MetricPointsDeadline] != 1 {
		t.Errorf("deltas = %v, want points=1 deadline=1", d)
	}

	// Table.fail feeds the degraded counter.
	delta = benchDeltas(reg, obs.MetricPointsDegraded)
	var tb Table
	tb.fail("probe", errors.New("boom"))
	if d := delta(); d[obs.MetricPointsDegraded] != 1 {
		t.Errorf("degraded delta = %v, want 1", d[obs.MetricPointsDegraded])
	}

	// ExperimentDone is the cmd/experiments hook.
	delta = benchDeltas(reg, obs.MetricExperiments)
	ExperimentDone()
	if d := delta(); d[obs.MetricExperiments] != 1 {
		t.Errorf("experiments delta = %v, want 1", d[obs.MetricExperiments])
	}
}

// TestWatchdogDoesNotLeakGoroutines drives several deadline-canceled
// points and checks the process goroutine count settles back to its
// baseline: the watchdog's point goroutine and timer must both be
// reclaimed when cancellation is cooperative (the abandoned-point leak
// is deliberate and only triggers on a machine wedged inside one tick,
// which a livelock is not).
func TestWatchdogDoesNotLeakGoroutines(t *testing.T) {
	s := Sweep{Deadline: 20 * time.Millisecond}
	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		_, err := s.runWA(context.Background(), pram.Config{N: 64, P: 64, MaxTicks: 1 << 30},
			writeall.NewV(), &adversary.Thrashing{Rotate: true})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("point %d: err = %v, want DeadlineExceeded", i, err)
		}
	}
	// The point goroutine finishes a beat after runWA returns (it is
	// draining into the buffered channel); give it a settle window.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, baseline %d: watchdog leaked", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
