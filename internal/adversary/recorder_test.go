package adversary_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/pram"
	"repro/internal/writeall"
)

func TestRecorderCapturesExactPattern(t *testing.T) {
	inner := adversary.NewRandom(0.2, 0.5, 55)
	rec := adversary.NewRecorder(inner)
	got := runX(t, 64, 16, rec)

	pattern := rec.Pattern()
	fails, restarts := 0, 0
	for _, e := range pattern {
		switch e.Kind {
		case adversary.Fail:
			fails++
		case adversary.Restart:
			restarts++
		}
	}
	// The recorder logs what the adversary *requested*; the machine may
	// veto or drop some, so recorded counts bound the metrics.
	if int64(fails) < got.Failures {
		t.Errorf("recorded %d fails < %d applied", fails, got.Failures)
	}
	if int64(restarts) < got.Restarts {
		t.Errorf("recorded %d restarts < %d applied", restarts, got.Restarts)
	}
	if fails == 0 {
		t.Error("no events recorded; test is vacuous")
	}
}

func TestRecorderReplayReproducesDeterministicRun(t *testing.T) {
	// Against a deterministic algorithm, replaying a recorded pattern
	// must reproduce the original run exactly.
	mk := func(adv pram.Adversary) pram.Metrics {
		return runX(t, 96, 24, adv)
	}
	rec := adversary.NewRecorder(adversary.NewRandom(0.25, 0.6, 7))
	orig := mk(rec)
	replayed := mk(rec.Replay())
	if orig != replayed {
		t.Errorf("replay diverged:\n  orig     = %+v\n  replayed = %+v", orig, replayed)
	}
}

func TestRecorderReplayIsOffLineAgainstRandomization(t *testing.T) {
	// Section 5's distinction: a pattern recorded while stalking one ACC
	// run is harmless against a run with fresh coins. The replayed run's
	// work should be near the failure-free baseline, far below what an
	// adaptive stalker could force.
	const n, p = 64, 64
	runACC := func(seed int64, adv pram.Adversary) pram.Metrics {
		acc := writeall.NewACC(seed)
		m, err := pram.New(pram.Config{N: n, P: p}, acc, adv)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		got, err := m.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return got
	}

	live := adversary.NewRecorder(writeall.NewStalking(writeall.NewACC(1).Layout(n, p), false))
	onLine := runACC(1, live)
	offLine := runACC(2, live.Replay())
	baseline := runACC(2, adversary.None{})

	if onLine.Failures == 0 {
		t.Fatal("stalker never fired; test is vacuous")
	}
	// The off-line replay must not cost more than a modest factor over
	// the failure-free baseline (it is noise), while remaining a valid
	// failure pattern.
	if offLine.S() > 3*baseline.S() {
		t.Errorf("off-line replay cost %d vs baseline %d; should be benign",
			offLine.S(), baseline.S())
	}
}

func TestRecorderName(t *testing.T) {
	rec := adversary.NewRecorder(adversary.None{})
	if got, want := rec.Name(), "none+recorded"; got != want {
		t.Errorf("Name() = %q, want %q", got, want)
	}
}

func TestPatternRoundTrip(t *testing.T) {
	pattern := []adversary.Event{
		{Tick: 0, PID: 3, Kind: adversary.Fail, Point: pram.FailBeforeReads},
		{Tick: 5, PID: 1, Kind: adversary.Fail, Point: pram.FailAfterReads},
		{Tick: 6, PID: 2, Kind: adversary.Fail, Point: pram.FailAfterWrite1},
		{Tick: 9, PID: 3, Kind: adversary.Restart},
	}
	var buf bytes.Buffer
	if err := adversary.WritePattern(&buf, pattern); err != nil {
		t.Fatalf("WritePattern: %v", err)
	}
	got, err := adversary.ReadPattern(&buf)
	if err != nil {
		t.Fatalf("ReadPattern: %v", err)
	}
	if len(got) != len(pattern) {
		t.Fatalf("round trip: %d events, want %d", len(got), len(pattern))
	}
	for i := range pattern {
		if got[i] != pattern[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], pattern[i])
		}
	}
}

func TestReadPatternRejectsGarbage(t *testing.T) {
	tests := []string{
		`not json`,
		`{"events":[{"tick":0,"pid":0,"kind":"explode"}]}`,
		`{"events":[{"tick":0,"pid":0,"kind":"fail","point":"mid-write"}]}`,
	}
	for _, give := range tests {
		if _, err := adversary.ReadPattern(strings.NewReader(give)); err == nil {
			t.Errorf("ReadPattern(%q): want error", give)
		}
	}
}

func TestRecordedPatternSurvivesFileRoundTrip(t *testing.T) {
	// Record a live run, serialize, parse, replay: identical metrics.
	rec := adversary.NewRecorder(adversary.NewRandom(0.2, 0.6, 12))
	orig := runX(t, 64, 16, rec)

	var buf bytes.Buffer
	if err := adversary.WritePattern(&buf, rec.Pattern()); err != nil {
		t.Fatalf("WritePattern: %v", err)
	}
	pattern, err := adversary.ReadPattern(&buf)
	if err != nil {
		t.Fatalf("ReadPattern: %v", err)
	}
	replayed := runX(t, 64, 16, adversary.NewScheduled(pattern))
	if orig != replayed {
		t.Errorf("file round trip diverged:\n  orig     = %+v\n  replayed = %+v", orig, replayed)
	}
}

// TestRecordedPatternIsDeterministic runs the same recorded run twice:
// the pattern files and the Recorder snapshots must be byte-identical,
// within ticks too, because the recorder follows the decision's order.
func TestRecordedPatternIsDeterministic(t *testing.T) {
	record := func() ([]byte, []pram.Word) {
		rec := adversary.NewRecorder(adversary.NewRandom(0.3, 0.5, 1))
		runX(t, 256, 64, rec)
		var buf bytes.Buffer
		if err := adversary.WritePattern(&buf, rec.Pattern()); err != nil {
			t.Fatalf("WritePattern: %v", err)
		}
		return buf.Bytes(), rec.SnapshotState()
	}
	file1, snap1 := record()
	file2, snap2 := record()
	if !bytes.Equal(file1, file2) {
		t.Error("two identical recorded runs wrote different pattern files")
	}
	if !slices.Equal(snap1, snap2) {
		t.Error("two identical recorded runs left different Recorder snapshots")
	}
	if len(snap1) < 2 {
		t.Error("no events recorded; test is vacuous")
	}
}

// TestScheduledRepeatedPIDLastWins pins Scheduled's rule for a pattern
// that fails one PID twice in a tick: the later event sets the point.
func TestScheduledRepeatedPIDLastWins(t *testing.T) {
	s := adversary.NewScheduled([]adversary.Event{
		{Tick: 3, PID: 1, Kind: adversary.Fail, Point: pram.FailAfterReads},
		{Tick: 3, PID: 2, Kind: adversary.Fail},
		{Tick: 3, PID: 1, Kind: adversary.Fail, Point: pram.FailAfterWrite1},
	})
	dec := s.Decide(&pram.View{Tick: 3, P: 4})
	want := []pram.Failure{{PID: 1, Point: pram.FailAfterWrite1}, {PID: 2, Point: pram.FailBeforeReads}}
	if !slices.Equal(dec.Failures, want) {
		t.Errorf("Failures = %v, want %v", dec.Failures, want)
	}
}
