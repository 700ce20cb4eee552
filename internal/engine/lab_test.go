package engine_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/advlab"
	"repro/internal/engine"
)

// TestLabAfterDeadlineSweep checks that the lab, an engine client, runs
// its matches without a point deadline whatever sweep ran before it.
// Post-order against V panics in the adversary; without a watchdog
// goroutine the lab recovers that panic and reports the match as
// errored.
func TestLabAfterDeadlineSweep(t *testing.T) {
	spec := engine.SweepSpec{Run: []string{"E1"}, Deadline: time.Minute}
	if _, err := engine.ExecuteSweep(context.Background(), spec, engine.SweepOptions{}); err != nil {
		t.Fatalf("ExecuteSweep(E1, deadline %v): %v", spec.Deadline, err)
	}
	res, err := advlab.ExecuteLab(context.Background(), advlab.LabSpec{N: 64, P: 16, MaxTicks: 1 << 14, Algorithms: []string{"V"}})
	if err != nil {
		t.Fatalf("ExecuteLab: %v", err)
	}
	for _, m := range res.Matches {
		if m.Adversary == "postorder" {
			if m.Err == "" {
				t.Errorf("post-order vs V reported no error: %+v", m)
			}
			return
		}
	}
	t.Fatalf("no post-order match among %d matches", len(res.Matches))
}
