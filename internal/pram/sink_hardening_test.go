package pram

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

// Regression: CycleDone used to index t.work[ev.PID] unchecked, so a
// tracker sized below the machine's P — the Lemma 4.5 modulo-PID setup
// runs P = 2N processors against an N-sized tracker — panicked with an
// out-of-range on the first high-PID event.
func TestProcTrackerGrowsForHighPIDs(t *testing.T) {
	tr := NewProcTracker(2)
	tr.CycleDone(CycleEvent{PID: 5, Completed: true, ArrayWrites: 3})
	tr.CycleDone(CycleEvent{PID: 0, Completed: true, ArrayWrites: 1})
	tr.CycleDone(CycleEvent{PID: -1, Completed: true}) // nonsense PID: dropped
	work, progress := tr.Work(), tr.Progress()
	if len(work) != 6 || len(progress) != 6 {
		t.Fatalf("len(work) = %d, len(progress) = %d, want 6 after growing to PID 5", len(work), len(progress))
	}
	if work[5] != 1 || progress[5] != 3 {
		t.Errorf("PID 5: work = %d progress = %d, want 1 and 3", work[5], progress[5])
	}
	if work[0] != 1 || progress[0] != 1 {
		t.Errorf("PID 0: work = %d progress = %d, want 1 and 1", work[0], progress[0])
	}
}

func TestProcTrackerUndersizedAgainstMachine(t *testing.T) {
	tracker := NewProcTracker(1) // machine runs P = 4
	m := mustMachine(t, Config{N: 4, P: 4, Sink: tracker}, oneShotWriter(), &funcAdversary{})
	got, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var total int64
	for _, w := range tracker.Work() {
		total += w
	}
	if total != got.Completed {
		t.Errorf("tracked work = %d, Completed = %d", total, got.Completed)
	}
}

// Regression: Overhead divided by N+|F| unchecked, so the zero value (a
// degraded sweep point's metrics) returned NaN, which leaked into
// rendered tables.
func TestOverheadZeroDenominator(t *testing.T) {
	var m Metrics
	got := m.Overhead()
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("Overhead() on zero metrics = %v, want finite", got)
	}
	if got != 0 {
		t.Errorf("Overhead() = %v, want 0", got)
	}
}

func TestJSONLSampleThinsCycleEventsOnly(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Sample = 3
	for i := 0; i < 9; i++ {
		j.CycleDone(CycleEvent{PID: i})
	}
	j.TickDone(TickEvent{Tick: 1})
	j.RunDone(RunEvent{})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	var pids []int
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev struct {
			Ev  string `json:"ev"`
			PID int    `json:"pid"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		counts[ev.Ev]++
		if ev.Ev == "cycle" {
			pids = append(pids, ev.PID)
		}
	}
	if counts["cycle"] != 3 || counts["tick"] != 1 || counts["run"] != 1 {
		t.Errorf("event counts = %v, want 3 cycle / 1 tick / 1 run", counts)
	}
	if len(pids) != 3 || pids[0] != 0 || pids[1] != 3 || pids[2] != 6 {
		t.Errorf("kept cycle PIDs = %v, want [0 3 6] (every 3rd, starting at the 1st)", pids)
	}
}

// failWriter fails every write, counting attempts.
type failWriter struct{ writes int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.writes++
	return 0, errors.New("disk full")
}

// Regression: after the first write error the sink kept re-encoding
// (and re-failing) every subsequent event; the error is sticky, so the
// sink must stop touching the writer entirely.
func TestJSONLStickyErrorShortCircuits(t *testing.T) {
	fw := &failWriter{}
	j := NewJSONL(fw)
	j.TickDone(TickEvent{Tick: 1})
	if j.Err() == nil {
		t.Fatal("first failed write must surface via Err")
	}
	for i := 0; i < 5; i++ {
		j.CycleDone(CycleEvent{PID: i})
		j.TickDone(TickEvent{Tick: i})
		j.RunDone(RunEvent{})
	}
	if fw.writes != 1 {
		t.Errorf("writer hit %d times, want 1 (sticky error must short-circuit)", fw.writes)
	}
}

// Regression (run under -race): one JSONL shared by machines sweeping
// concurrently, with Err polled mid-run, raced on the shared encoder
// and error field. The sink serializes internally now; the per-machine
// Sink contract (one stepping goroutine) still holds for each machine
// individually — the concurrency comes from the two machines sharing
// one sink, as a concurrent sweep's do.
func TestJSONLSharedAcrossConcurrentMachines(t *testing.T) {
	j := NewJSONL(io.Discard)
	alg := func() *testAlg {
		return &testAlg{
			name: "stride",
			cycle: func(pid int, ctx *Ctx) Status {
				k := int(ctx.Stable())
				addr := pid + k*ctx.P()
				if addr >= ctx.N() {
					return Halt
				}
				ctx.Write(addr, 1)
				ctx.SetStable(Word(k + 1))
				return Continue
			},
			done: oneShotWriter().done,
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		m := mustMachine(t, Config{N: 64, P: 8, Sink: j}, alg(), &funcAdversary{})
		defer m.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.Run(); err != nil {
				t.Errorf("Run: %v", err)
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			if err := j.Err(); err != nil {
				t.Fatal(err)
			}
			return
		default:
			_ = j.Err() // poll mid-run, as cmd/writeall may
		}
	}
}
