package bench

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/faultinject"
	"repro/internal/pram"
	"repro/internal/writeall"
)

// TestJournalRecoversFromInjectedTornWrite drives the crash the journal
// format exists to survive — a write torn mid-line — through the
// fault-injection registry instead of hand-crafted file surgery: the
// torn Put reports an error, and reopening truncates the torn tail
// while keeping every complete entry.
func TestJournalRecoversFromInjectedTornWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")

	reg := faultinject.New(3)
	// Hit 0 is the first Put's write; tear the second.
	reg.Set("journal.write", faultinject.Spec{Mode: faultinject.Torn, After: 1, Max: 1})
	old := faultinject.Swap(reg)
	j, err := OpenJournalScope(path, "journal")
	if err != nil {
		faultinject.Swap(old)
		t.Fatalf("OpenJournalScope: %v", err)
	}
	if err := j.Put("done", "ok"); err != nil {
		faultinject.Swap(old)
		t.Fatalf("first Put: %v", err)
	}
	if err := j.Put("torn", "lost"); !errors.Is(err, faultinject.ErrInjected) {
		faultinject.Swap(old)
		t.Fatalf("torn Put err = %v, want injected fault", err)
	}
	j.Close()
	faultinject.Swap(old)

	j2, err := OpenJournalScope(path, "journal")
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	defer j2.Close()
	if j2.Has("torn") {
		t.Error("torn entry survived reopen")
	}
	if !j2.Has("done") {
		t.Error("complete entry lost to tail truncation")
	}
	// The journal must be fully usable after recovery.
	if err := j2.Put("torn", "retried"); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
	if j2.Len() != 2 {
		t.Errorf("Len = %d, want 2", j2.Len())
	}
}

// TestJournalSurvivesInjectedSyncFailure checks a failing fsync surfaces
// as a Put error (the entry's durability is unknown, so the caller must
// treat it as unrecorded) without corrupting the journal: the file still
// parses and earlier entries survive.
func TestJournalSurvivesInjectedSyncFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")

	reg := faultinject.New(3)
	reg.Set("journal.sync", faultinject.Spec{Mode: faultinject.Error, After: 1, Max: 1})
	old := faultinject.Swap(reg)
	j, err := OpenJournalScope(path, "journal")
	if err != nil {
		faultinject.Swap(old)
		t.Fatalf("OpenJournalScope: %v", err)
	}
	if err := j.Put("done", "ok"); err != nil {
		faultinject.Swap(old)
		t.Fatalf("first Put: %v", err)
	}
	if err := j.Put("unsure", 2); !errors.Is(err, faultinject.ErrInjected) {
		faultinject.Swap(old)
		t.Fatalf("sync-failed Put err = %v, want injected fault", err)
	}
	j.Close()
	faultinject.Swap(old)

	j2, err := OpenJournalScope(path, "journal")
	if err != nil {
		t.Fatalf("reopen after sync failure: %v", err)
	}
	defer j2.Close()
	if !j2.Has("done") {
		t.Error("entry recorded before the sync failure is gone")
	}
	if err := j2.Put("after", 3); err != nil {
		t.Fatalf("Put after sync failure: %v", err)
	}
}

// TestSweepDegradesUnderInjectedWorkerPanics is the graceful-degradation
// acceptance check: with worker panics injected into every machine past
// a chosen tick, a full experiment sweep must complete — no process
// panic — with each doomed point captured as a per-point error in
// Table.Errors rather than aborting the experiment.
func TestSweepDegradesUnderInjectedWorkerPanics(t *testing.T) {
	reg := faultinject.New(7)
	// Every (tick, pid) site from tick 8 on panics; thrashing runs need
	// ~N ticks, so every E1 point at Quick scale is doomed.
	reg.Set("kernel.cycle", faultinject.Spec{Mode: faultinject.Panic, After: 8 << 32})
	old := faultinject.Swap(reg)
	defer faultinject.Swap(old)

	tables := E1Thrashing(context.Background(), Sweep{Scale: Quick})
	if len(tables) == 0 {
		t.Fatal("sweep produced no tables")
	}
	nErr := 0
	for _, tb := range tables {
		nErr += len(tb.Errors)
		for _, e := range tb.Errors {
			if !strings.Contains(e, "panicked") {
				t.Errorf("degraded point error %q does not name the panic", e)
			}
		}
	}
	if nErr == 0 {
		t.Fatal("no per-point errors recorded despite injected panics")
	}
	// The degraded table must still render, with the failures visible.
	var sb strings.Builder
	for _, tb := range tables {
		tb.Render(&sb)
	}
	if !strings.Contains(sb.String(), "!!") {
		t.Errorf("rendered output hides the degraded points:\n%s", sb.String())
	}
}

// TestPointDeadlineCancelsLivelockedRun checks the wall-clock watchdog:
// a point whose machine livelocks (legal ticks forever) is canceled
// cooperatively at the deadline and reported as that point's error.
func TestPointDeadlineCancelsLivelockedRun(t *testing.T) {
	// V under the rotating thrasher makes no progress; with an absurd
	// tick budget only the wall-clock deadline can end the point.
	_, err := Sweep{Deadline: 50 * time.Millisecond}.runWA(context.Background(), pram.Config{N: 64, P: 64, MaxTicks: 1 << 30},
		writeall.NewV(), &adversary.Thrashing{Rotate: true})
	if err == nil {
		t.Fatal("livelocked point returned no error under a 50ms deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestPointDeadlineLeavesFastPointsAlone checks the watchdog does not
// perturb points that finish within budget.
func TestPointDeadlineLeavesFastPointsAlone(t *testing.T) {
	base, err := Sweep{}.runWA(context.Background(), pram.Config{N: 64, P: 8},
		writeall.NewX(), adversary.None{})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	got, err := Sweep{Deadline: time.Minute}.runWA(context.Background(), pram.Config{N: 64, P: 8},
		writeall.NewX(), adversary.None{})
	if err != nil {
		t.Fatalf("under deadline: %v", err)
	}
	if got != base {
		t.Errorf("watchdog changed the run: %+v vs %+v", got, base)
	}
}

// TestPointDeadlineBoundsSimulationPoints checks that the point deadline
// reaches every experiment's points: under a deadline no run can meet,
// each quick experiment reports degraded points citing the deadline
// instead of running them to completion (a point that needs a failed
// point's result degrades with its own cause). The robust executor's
// experiments E9, E10 and E11 must degrade every point on the deadline.
func TestPointDeadlineBoundsSimulationPoints(t *testing.T) {
	s := Sweep{Scale: Quick, Deadline: time.Nanosecond}
	allPoints := map[string]int{"E9": 4, "E10": 4, "E11": 6}
	for _, e := range All() {
		var rows, errs, cited int
		for _, tb := range e.Run(context.Background(), s) {
			rows += len(tb.Rows)
			errs += len(tb.Errors)
			for _, msg := range tb.Errors {
				if strings.Contains(msg, context.DeadlineExceeded.Error()) {
					cited++
				}
			}
		}
		if cited == 0 {
			t.Errorf("%s: no degraded point cites the %v point deadline (%d rows, %d errors)", e.ID, s.Deadline, rows, errs)
		}
		if want, ok := allPoints[e.ID]; ok && (rows != 0 || cited != want || errs != want) {
			t.Errorf("%s: %d rows and %d errors (%d citing the deadline), want 0 rows and all %d points degraded on the deadline",
				e.ID, rows, errs, cited, want)
		}
	}
}
