package pram_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/pram"
)

// encodingJSONLines renders ev's cycle line and tk's tick line the way
// the sink did before it encoded them by hand: encoding/json, one
// Encode per line.
func encodingJSONLines(t testing.TB, ev pram.CycleEvent, tk pram.TickEvent) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(struct {
		Ev string `json:"ev"`
		pram.CycleEvent
	}{"cycle", ev}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(struct {
		Ev string `json:"ev"`
		pram.TickEvent
	}{"tick", tk}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzJSONLMatchesEncodingJSON holds the hand encoder of cycle and tick
// lines to encoding/json's bytes for arbitrary field values: negative
// and extreme ints, every fail point and values past the last one.
func FuzzJSONLMatchesEncodingJSON(f *testing.F) {
	for fp := pram.NoFailure; fp <= pram.FailAfterWrite1+1; fp++ {
		f.Add(3, 7, int(fp), true, fp == pram.NoFailure, 2, 1, fp == pram.NoFailure, 3, 64, 60, 4, 1)
	}
	f.Add(0, 0, 0, false, false, 0, 0, false, 0, 0, 0, 0, 0)
	f.Add(math.MaxInt, math.MinInt, math.MinInt, true, true, math.MaxInt, math.MinInt, true,
		math.MinInt, math.MaxInt, -1, math.MinInt, math.MaxInt)
	f.Add(-1, -1, -1, false, true, -1, -1, true, -1, -1, -1, -1, -1)
	f.Fuzz(func(t *testing.T, tick, pid, fail int, started, completed bool, writes, arrayWrites int, halted bool,
		tTick, alive, done, failures, restarts int) {
		ev := pram.CycleEvent{Tick: tick, PID: pid, Fail: pram.FailPoint(fail), Started: started,
			Completed: completed, Writes: writes, ArrayWrites: arrayWrites, Halted: halted}
		tk := pram.TickEvent{Tick: tTick, Alive: alive, Completed: done, Failures: failures, Restarts: restarts}
		var got bytes.Buffer
		j := pram.NewJSONL(&got)
		j.CycleDone(ev)
		j.TickDone(tk)
		if err := j.Err(); err != nil {
			t.Fatal(err)
		}
		if want := encodingJSONLines(t, ev, tk); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("hand-encoded lines differ from encoding/json's:\n got %s\nwant %s", got.Bytes(), want)
		}
	})
}

// countingWriter records the size of every Write.
type countingWriter struct {
	bytes.Buffer
	writes []int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.Buffer.Write(p)
}

// TestJSONLWritesOncePerTick pins the sink's write pattern: cycle lines
// wait for their tick, and a tick, a quiet window and the run each cost
// one Write holding every pending line.
func TestJSONLWritesOncePerTick(t *testing.T) {
	w := &countingWriter{}
	j := pram.NewJSONL(w)
	for pid := 0; pid < 3; pid++ {
		j.CycleDone(pram.CycleEvent{PID: pid, Started: true, Completed: true})
	}
	if len(w.writes) != 0 {
		t.Fatalf("cycle lines written before their tick: %v", w.writes)
	}
	j.TickDone(pram.TickEvent{Alive: 3, Completed: 3})
	j.BatchDone(pram.BatchEvent{FromTick: 1, Ticks: 4, Alive: 3, Completed: 12})
	j.RunDone(pram.RunEvent{})
	if len(w.writes) != 3 {
		t.Fatalf("writes = %v, want 3 (tick, window, run)", w.writes)
	}
	if lines := strings.Count(w.String()[:w.writes[0]], "\n"); lines != 4 {
		t.Errorf("the tick's write holds %d lines, want 4 (three cycles and the tick)", lines)
	}
	const batch = `{"ev":"batch","from":1,"ticks":4,"alive":3,"completed":12}` + "\n"
	if got := w.String()[w.writes[0] : w.writes[0]+w.writes[1]]; got != batch {
		t.Errorf("batch line = %q, want %q", got, batch)
	}
}

// TestJSONLResumeContinuesTrace replays a trace's events after cutting
// it back with Resume at every tick a checkpoint can hold, and requires
// the kept prefix plus the replayed events to be the uninterrupted
// trace byte for byte, including which cycle lines sampling keeps. A
// torn last line and the run line are cut.
func TestJSONLResumeContinuesTrace(t *testing.T) {
	// Ticks 0-3 one by one, a quiet window over ticks 4-7, tick 8, the
	// run's end. Checkpoints never fall inside a window.
	type step struct {
		tick int
		emit func(*pram.JSONL)
	}
	var steps []step
	ticks := func(tick, alive int) {
		steps = append(steps, step{tick, func(j *pram.JSONL) {
			for pid := 0; pid < alive; pid++ {
				j.CycleDone(pram.CycleEvent{Tick: tick, PID: pid, Started: true, Completed: pid != 1, Writes: 1})
			}
			j.TickDone(pram.TickEvent{Tick: tick, Alive: alive, Completed: alive - 1})
		}})
	}
	for tick, alive := range []int{4, 3, 0, 5} {
		ticks(tick, alive)
	}
	steps = append(steps, step{4, func(j *pram.JSONL) {
		j.BatchDone(pram.BatchEvent{FromTick: 4, Ticks: 4, Alive: 2, Completed: 8})
	}})
	ticks(8, 2)
	steps = append(steps, step{9, func(j *pram.JSONL) { j.RunDone(pram.RunEvent{}) }})

	for _, mode := range []struct {
		name   string
		ticks  bool
		sample int
	}{{"full", false, 0}, {"sample3", false, 3}, {"ticks", true, 0}} {
		write := func(trace *bytes.Buffer) *pram.JSONL {
			j := pram.NewJSONL(trace)
			j.Ticks, j.Sample = mode.ticks, mode.sample
			return j
		}
		var full bytes.Buffer
		j := write(&full)
		for _, s := range steps {
			s.emit(j)
		}
		for _, resumeAt := range []int{0, 1, 2, 3, 4, 8, 9} {
			t.Run(fmt.Sprintf("%s/tick%d", mode.name, resumeAt), func(t *testing.T) {
				// The crashed run wrote everything, a torn line after it.
				crashed := append(bytes.Clone(full.Bytes()), `{"ev":"cycle","ti`...)
				var resumed bytes.Buffer
				j := write(&resumed)
				keep, err := j.Resume(bytes.NewReader(crashed), resumeAt)
				if err != nil {
					t.Fatal(err)
				}
				resumed.Write(crashed[:keep])
				for _, s := range steps {
					if s.tick >= resumeAt {
						s.emit(j)
					}
				}
				if !bytes.Equal(resumed.Bytes(), full.Bytes()) {
					t.Fatalf("resumed trace differs:\n got %s\nwant %s", resumed.Bytes(), full.Bytes())
				}
			})
		}
	}
}
