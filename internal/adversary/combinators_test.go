package adversary_test

import (
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/pram"
	"repro/internal/writeall"
)

func TestCompositeLayersAttacks(t *testing.T) {
	// Background random churn plus a targeted persistent fault.
	bg := adversary.NewRandom(0.1, 0.8, 3)
	target := &adversary.Targeted{PIDs: []int{1}, Revive: true}
	comp := adversary.NewComposite(target, bg)
	got := runX(t, 64, 8, comp)
	if got.FSize() == 0 {
		t.Error("composite issued no events")
	}
	if !strings.Contains(comp.Name(), "targeted") || !strings.Contains(comp.Name(), "random") {
		t.Errorf("Name() = %q, want both parts", comp.Name())
	}
}

func TestCompositeFirstPartWinsFailPoints(t *testing.T) {
	a := adversary.NewScheduled([]adversary.Event{
		{Tick: 0, PID: 1, Kind: adversary.Fail, Point: pram.FailAfterReads},
	})
	b := adversary.NewScheduled([]adversary.Event{
		{Tick: 0, PID: 1, Kind: adversary.Fail, Point: pram.FailBeforeReads},
		{Tick: 2, PID: 1, Kind: adversary.Restart},
	})
	got := runX(t, 16, 4, adversary.NewComposite(a, b))
	// FailAfterReads (from a, the first part) produces an incomplete
	// cycle; FailBeforeReads would not.
	if got.Incomplete != 1 {
		t.Errorf("Incomplete = %d, want 1 (first part's fail point must win)", got.Incomplete)
	}
}

func TestWindowConfinesAttacks(t *testing.T) {
	inner := &adversary.Thrashing{}
	w := adversary.NewWindow(inner, 2, 4)
	got := runX(t, 32, 8, w)
	if got.Failures == 0 {
		t.Error("window never opened")
	}
	// Only ticks 2 and 3 thrash: at most 7 kills each.
	if got.Failures > 14 {
		t.Errorf("Failures = %d, want <= 14 (2 windowed ticks)", got.Failures)
	}
}

func TestWindowUnboundedUpperEdge(t *testing.T) {
	w := adversary.NewWindow(adversary.NewRandom(0.2, 0.9, 5), 1, 0)
	got := runX(t, 32, 8, w)
	if got.Failures == 0 {
		t.Error("unbounded window never fired")
	}
}

func TestTargetedWithoutReviveKillsOnce(t *testing.T) {
	target := &adversary.Targeted{PIDs: []int{2, 3}}
	got := runX(t, 32, 8, target)
	if got.Failures != 2 {
		t.Errorf("Failures = %d, want 2", got.Failures)
	}
	if got.Restarts != 0 {
		t.Errorf("Restarts = %d, want 0", got.Restarts)
	}
}

func TestTargetedReviveKeepsVictimsDeadEffectively(t *testing.T) {
	// Persistently attacked processors flap but never contribute; the
	// rest complete the task.
	target := &adversary.Targeted{PIDs: []int{0, 1}, Revive: true, Point: pram.FailAfterReads}
	got := runX(t, 32, 8, target)
	if got.Failures < 2 || got.Restarts < 1 {
		t.Errorf("F/R = %d/%d; expected sustained flapping", got.Failures, got.Restarts)
	}
	_ = writeall.Verify // (postcondition asserted inside runX)
}

func TestTargetedIgnoresOutOfRangePIDs(t *testing.T) {
	target := &adversary.Targeted{PIDs: []int{-1, 99}}
	got := runX(t, 16, 4, target)
	if got.FSize() != 0 {
		t.Errorf("|F| = %d, want 0", got.FSize())
	}
}

func TestCombinatorNames(t *testing.T) {
	w := adversary.NewWindow(adversary.None{}, 0, 5)
	if got, want := w.Name(), "none@[0,5)"; got != want {
		t.Errorf("Window.Name() = %q, want %q", got, want)
	}
	unbounded := adversary.NewWindow(adversary.None{}, 3, 0)
	if got, want := unbounded.Name(), "none@[3,)"; got != want {
		t.Errorf("Window.Name() = %q, want %q", got, want)
	}
	tg := &adversary.Targeted{PIDs: []int{2, 3}}
	if got, want := tg.Name(), "targeted(2+3)"; got != want {
		t.Errorf("Targeted.Name() = %q, want %q", got, want)
	}
}

// TestCombinatorNamesNeverCollide is the regression test for the
// name-collision bug: differently-configured windows and target sets
// over the same inner adversary used to share "inner@window" and
// "targeted", conflating bench-table rows and sweep-journal keys.
func TestCombinatorNamesNeverCollide(t *testing.T) {
	longA := make([]int, 16)
	longB := make([]int, 16)
	for i := range longA {
		longA[i] = i
		longB[i] = i
	}
	longB[15] = 99
	named := []pram.Adversary{
		adversary.NewWindow(adversary.None{}, 0, 5),
		adversary.NewWindow(adversary.None{}, 0, 6),
		adversary.NewWindow(adversary.None{}, 1, 5),
		adversary.NewWindow(adversary.None{}, 0, 0),
		adversary.NewWindow(adversary.None{}, 5, 0),
		&adversary.Targeted{PIDs: []int{1}},
		&adversary.Targeted{PIDs: []int{2}},
		&adversary.Targeted{PIDs: []int{1, 2}},
		&adversary.Targeted{PIDs: []int{1}, Revive: true},
		&adversary.Targeted{PIDs: []int{1}, Point: pram.FailAfterReads},
		&adversary.Targeted{PIDs: longA},
		&adversary.Targeted{PIDs: longB},
	}
	seen := make(map[string]int)
	for i, a := range named {
		name := a.Name()
		if prev, dup := seen[name]; dup {
			t.Errorf("adversaries %d and %d share the key %q", prev, i, name)
		}
		seen[name] = i
	}
}

// TestWindowQuiescence pins the QuiescentFor forwarding: the gap to
// From before the window, the inner adversary's claim (capped or
// extended by To) inside it, and forever after a bounded window closes.
func TestWindowQuiescence(t *testing.T) {
	const forever = 1 << 40 // anything huge counts as "forever" below
	inner := adversary.NewScheduled([]adversary.Event{
		{Tick: 12, PID: 0, Kind: adversary.Fail},
		{Tick: 30, PID: 0, Kind: adversary.Restart},
	})
	w := adversary.NewWindow(inner, 10, 20)
	cases := []struct {
		tick, want int
		orMore     bool
	}{
		{tick: 0, want: 10},                     // gap to From
		{tick: 7, want: 3},                      // gap to From
		{tick: 10, want: 2},                     // inner's gap to its tick-12 event
		{tick: 13, want: forever, orMore: true}, // inner quiet through To, window never reopens
		{tick: 20, want: forever, orMore: true}, // at To: closed forever
		{tick: 25, want: forever, orMore: true}, // past To
	}
	for _, c := range cases {
		got := w.QuiescentFor(c.tick)
		if c.orMore && got < c.want {
			t.Errorf("QuiescentFor(%d) = %d, want >= %d", c.tick, got, c.want)
		} else if !c.orMore && got != c.want {
			t.Errorf("QuiescentFor(%d) = %d, want %d", c.tick, got, c.want)
		}
	}

	// A window over a non-Quiescence inner still reports the closed
	// stretches but falls back to 0 inside the window.
	opaque := adversary.NewWindow(&adversary.Thrashing{}, 4, 8)
	if got := opaque.QuiescentFor(0); got != 4 {
		t.Errorf("opaque QuiescentFor(0) = %d, want 4", got)
	}
	if got := opaque.QuiescentFor(5); got != 0 {
		t.Errorf("opaque QuiescentFor(5) = %d, want 0", got)
	}
	if got := opaque.QuiescentFor(8); got < forever {
		t.Errorf("opaque QuiescentFor(8) = %d, want forever", got)
	}
}

// TestCompositeQuiescence pins the Composite forwarding: the min over
// the parts when every part implements pram.Quiescence, and no claim
// at all (the interface is withheld) when any part does not.
func TestCompositeQuiescence(t *testing.T) {
	a := adversary.NewScheduled([]adversary.Event{{Tick: 5, PID: 0, Kind: adversary.Fail}})
	b := adversary.NewScheduled([]adversary.Event{{Tick: 9, PID: 1, Kind: adversary.Fail}})
	comp := adversary.NewComposite(a, b)
	q, ok := comp.(pram.Quiescence)
	if !ok {
		t.Fatal("composite of Quiescence parts must implement pram.Quiescence")
	}
	if got := q.QuiescentFor(0); got != 5 {
		t.Errorf("QuiescentFor(0) = %d, want 5 (min over parts)", got)
	}
	if got := q.QuiescentFor(6); got != 3 {
		t.Errorf("QuiescentFor(6) = %d, want 3", got)
	}
	if got := q.QuiescentFor(10); got < 1<<30 {
		t.Errorf("QuiescentFor(10) = %d, want forever", got)
	}

	mixed := adversary.NewComposite(a, &adversary.Thrashing{})
	if _, ok := mixed.(pram.Quiescence); ok {
		t.Error("composite with a non-Quiescence part must not claim pram.Quiescence")
	}
	if _, ok := mixed.(pram.Snapshotter); !ok {
		t.Error("plain composite must still implement pram.Snapshotter")
	}
}

func TestRandomEventsCounter(t *testing.T) {
	r := adversary.NewRandom(0.5, 0.9, 3)
	r.MaxEvents = 20
	runX(t, 64, 16, r)
	if r.Events() == 0 || r.Events() > 20 {
		t.Errorf("Events() = %d, want in (0, 20]", r.Events())
	}
}
