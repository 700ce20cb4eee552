package engine

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func sweepE1(t *testing.T, deadline time.Duration) SweepResult {
	t.Helper()
	res, err := ExecuteSweep(context.Background(), SweepSpec{Run: []string{"E1"}, Deadline: deadline}, SweepOptions{})
	if err != nil {
		t.Fatalf("ExecuteSweep(E1, deadline %v): %v", deadline, err)
	}
	return res
}

// TestSweepDeadlineDoesNotOutliveSweep checks that a sweep's point
// deadline applies to that sweep alone: the experiment run and the sweep
// that follow it in the same process degrade nothing.
func TestSweepDeadlineDoesNotOutliveSweep(t *testing.T) {
	if got := sweepE1(t, time.Nanosecond).Degraded; got != 8 {
		t.Fatalf("E1 under a 1ns deadline degraded %d points, want all 8", got)
	}
	tables, err := RunExperiment(context.Background(), "E1", false)
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	for _, tb := range tables {
		if len(tb.Errors) > 0 {
			t.Errorf("RunExperiment after the sweep degraded %d points: %v", len(tb.Errors), tb.Errors)
		}
	}
	if got := sweepE1(t, 0).Degraded; got != 0 {
		t.Errorf("a sweep without a deadline after the 1ns sweep degraded %d points, want 0", got)
	}
}

// TestConcurrentSweepsKeepTheirSettings runs two sweeps at once, one
// with a 1ns point deadline and one without; each must equal the same
// sweep run alone.
func TestConcurrentSweepsKeepTheirSettings(t *testing.T) {
	deadlines := []time.Duration{time.Nanosecond, 0}
	want := make([]string, len(deadlines))
	for i, d := range deadlines {
		raw, _ := json.Marshal(sweepE1(t, d))
		want[i] = string(raw)
	}
	got := make([]string, len(deadlines))
	var wg sync.WaitGroup
	for i, d := range deadlines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := ExecuteSweep(context.Background(), SweepSpec{Run: []string{"E1"}, Deadline: d}, SweepOptions{})
			if err != nil {
				t.Errorf("concurrent ExecuteSweep(deadline %v): %v", d, err)
			}
			raw, _ := json.Marshal(res)
			got[i] = string(raw)
		}()
	}
	wg.Wait()
	for i, d := range deadlines {
		if got[i] != want[i] {
			t.Errorf("sweep with deadline %v run beside another differs from it run alone:\nalone  %s\nbeside %s", d, want[i], got[i])
		}
	}
}
