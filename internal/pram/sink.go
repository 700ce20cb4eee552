package pram

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"
)

// CycleEvent describes the outcome of one processor's update-cycle attempt
// in one tick: whether it completed, where the adversary struck, and how
// many of its buffered writes committed. Events are emitted in PID order
// during the commit phase on the stepping goroutine, so sinks never need
// locking.
type CycleEvent struct {
	// Tick is the clock value of the tick the attempt ran in.
	Tick int `json:"tick"`
	// PID identifies the processor.
	PID int `json:"pid"`
	// Fail is where the adversary struck (NoFailure if it survived).
	Fail FailPoint `json:"fail,omitempty"`
	// Started reports whether at least one instruction executed (the S'
	// accounting of Remark 2).
	Started bool `json:"started"`
	// Completed reports whether the whole cycle completed (charged to S).
	Completed bool `json:"completed"`
	// Writes is the number of committed shared-memory writes (the prefix
	// that landed before the fail point).
	Writes int `json:"writes"`
	// ArrayWrites is the number of committed writes into the Write-All
	// input region [0, N) - the cycle's direct contribution to the task.
	ArrayWrites int `json:"arrayWrites"`
	// Halted reports whether the processor exited the algorithm.
	Halted bool `json:"halted,omitempty"`
}

// TickEvent is the per-tick profile: the aggregate liveness and work of
// one synchronous step.
type TickEvent struct {
	// Tick is the clock value the event describes (before the tick ran).
	Tick int `json:"tick"`
	// Alive is the number of processors that attempted a cycle.
	Alive int `json:"alive"`
	// Completed is the number of cycles that completed this tick (the
	// tick's contribution to S).
	Completed int `json:"completed"`
	// Failures and Restarts are this tick's event counts.
	Failures int `json:"failures"`
	Restarts int `json:"restarts"`
}

// RunEvent is emitted once, when a run terminates (successfully or not).
type RunEvent struct {
	// Metrics is the final accounting.
	Metrics Metrics `json:"metrics"`
	// Err is the run's terminal error, nil on success.
	Err error `json:"-"`
}

// Sink observes a machine run. It is the single instrumentation seam of
// the simulator: per-cycle outcomes, per-tick profiles, and the run
// result all flow through it. The machine invokes every method from the
// commit phase of a tick on the stepping goroutine - never concurrently -
// so implementations need no synchronization.
//
// A nil Config.Sink disables instrumentation at zero cost.
type Sink interface {
	// CycleDone is called once per attempted update cycle, in PID order,
	// after the tick's writes have committed.
	CycleDone(CycleEvent)
	// TickDone is called once per tick, after all CycleDone events.
	TickDone(TickEvent)
	// RunDone is called once, when the run completes or aborts.
	RunDone(RunEvent)
}

// TickFunc adapts a per-tick callback to the Sink interface, ignoring
// cycle- and run-level events. It replaces the old Config.Tracer hook.
type TickFunc func(TickEvent)

// CycleDone implements Sink as a no-op.
func (TickFunc) CycleDone(CycleEvent) {}

// TickDone implements Sink.
func (f TickFunc) TickDone(ev TickEvent) { f(ev) }

// RunDone implements Sink as a no-op.
func (TickFunc) RunDone(RunEvent) {}

// MultiSink fans events out to several sinks in order.
type MultiSink []Sink

// CycleDone implements Sink.
func (m MultiSink) CycleDone(ev CycleEvent) {
	for _, s := range m {
		s.CycleDone(ev)
	}
}

// TickDone implements Sink.
func (m MultiSink) TickDone(ev TickEvent) {
	for _, s := range m {
		s.TickDone(ev)
	}
}

// RunDone implements Sink.
func (m MultiSink) RunDone(ev RunEvent) {
	for _, s := range m {
		s.RunDone(ev)
	}
}

// ProcTracker accumulates per-processor work and progress counts from the
// cycle-event stream. It replaces the old Config.TrackPerProcessor mode:
// attach one via Config.Sink and read it after the run, e.g. for the load
// balance analysis of experiment E16.
type ProcTracker struct {
	work     []int64
	progress []int64
}

// NewProcTracker returns a tracker for p processors.
func NewProcTracker(p int) *ProcTracker {
	return &ProcTracker{work: make([]int64, p), progress: make([]int64, p)}
}

// CycleDone implements Sink. PIDs beyond the tracker's initial size grow
// the counters on demand: a tracker sized from N observes PIDs up to
// P−1 on modulo-PID runs (the Lemma 4.5 scenarios run P = 2N processors
// against N tree leaves), and restarted incarnations keep their original
// PID, so out-of-range events are legitimate, not a caller bug.
func (t *ProcTracker) CycleDone(ev CycleEvent) {
	if ev.PID < 0 {
		return
	}
	if ev.PID >= len(t.work) {
		t.work = growCounts(t.work, ev.PID+1)
		t.progress = growCounts(t.progress, ev.PID+1)
	}
	if ev.Completed {
		t.work[ev.PID]++
	}
	t.progress[ev.PID] += int64(ev.ArrayWrites)
}

// growCounts extends a counter slice to length n, preserving contents.
func growCounts(s []int64, n int) []int64 {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([]int64, n)
	copy(out, s)
	return out
}

// TickDone implements Sink.
func (t *ProcTracker) TickDone(TickEvent) {}

// RunDone implements Sink.
func (t *ProcTracker) RunDone(RunEvent) {}

// Work returns each processor's completed-cycle count. The returned slice
// is a copy.
func (t *ProcTracker) Work() []int64 { return copyCounts(t.work) }

// Progress returns each processor's count of committed writes into the
// input region [0, N). The returned slice is a copy.
func (t *ProcTracker) Progress() []int64 { return copyCounts(t.progress) }

func copyCounts(src []int64) []int64 {
	out := make([]int64, len(src))
	copy(out, src)
	return out
}

// JSONL is a Sink that streams events as JSON lines: one object per
// event, tagged {"ev":"cycle"|"tick"|"batch"|"run"}. cmd/writeall's
// -trace flag wires one to a file, and the job service one to each run
// job's events.jsonl. Cycle events are verbose (P lines per tick); use
// Ticks to restrict the stream to tick, batch and run events, or Sample
// to thin them.
//
// Cycle, tick and batch lines are encoded by hand into a buffer the sink
// reuses, byte-identical to encoding/json's rendering of CycleEvent and
// TickEvent; the run line, written once, goes through encoding/json.
// TickDone, BatchDone and RunDone write every pending line with one
// Write, so the writer sees one Write per tick (the buffer holds one
// tick's lines, about 100 bytes per processor with cycle events on),
// and nothing is pending between ticks: a file the sink writes always
// ends at a tick boundary.
//
// JSONL is a BatchSink, so a batched run keeps its quiet windows: each
// window is one batch line {"ev":"batch","from":F,"ticks":K,"alive":A,
// "completed":C} in place of the cycle and tick lines of the ticks
// [F, F+K) (see BatchEvent).
//
// A JSONL serializes its writes internally, so one sink may be shared
// across machines running concurrently (a parallel sweep tracing to a
// single file) or polled with Err while a run is in flight. Events from
// a single machine still arrive in deterministic PID order; interleaving
// across machines is line-atomic but unordered. Configure Ticks and
// Sample before attaching the sink.
type JSONL struct {
	w io.Writer
	// Ticks, when set, suppresses cycle events.
	Ticks bool
	// Sample, when > 1, keeps only every Sample-th cycle event (the
	// 1st, the Sample+1-th, ...), so production-scale runs can trace at
	// a bounded file-growth rate. Tick, batch and run events are never
	// sampled. Zero or one keeps every event.
	Sample int

	mu     sync.Mutex
	buf    []byte // lines pending since the last Write
	err    error
	cycles uint64 // cycle events seen, for sampling
}

// NewJSONL returns a sink writing JSON-lines events to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: w}
}

// CycleDone implements Sink.
func (j *JSONL) CycleDone(ev CycleEvent) {
	if j.Ticks {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n := j.cycles
	j.cycles++
	if j.Sample > 1 && n%uint64(j.Sample) != 0 || j.err != nil {
		return
	}
	j.buf = appendCycleLine(j.buf, ev)
}

// TickDone implements Sink.
func (j *JSONL) TickDone(ev TickEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.buf = appendTickLine(j.buf, ev)
	j.writeLocked()
}

// BatchDone implements BatchSink.
func (j *JSONL) BatchDone(ev BatchEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.buf = appendBatchLine(j.buf, ev)
	j.writeLocked()
}

// RunDone implements Sink.
func (j *JSONL) RunDone(ev RunEvent) {
	line := struct {
		Ev string `json:"ev"`
		RunEvent
		Error string `json:"error,omitempty"`
	}{Ev: "run", RunEvent: ev}
	if ev.Err != nil {
		line.Error = ev.Err.Error()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	data, err := json.Marshal(line)
	if err != nil {
		j.err = err
		return
	}
	j.buf = append(append(j.buf, data...), '\n')
	j.writeLocked()
}

// Err returns the first write error, if any. The error is sticky: after
// the first failure the sink stops encoding entirely.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// writeLocked writes the pending lines with one Write; the caller holds
// j.mu and has checked j.err.
func (j *JSONL) writeLocked() {
	_, j.err = j.w.Write(j.buf)
	j.buf = j.buf[:0]
}

// appendCycleLine appends ev's cycle line, keeping encoding/json's key
// order and omitempty on fail and halted.
func appendCycleLine(b []byte, ev CycleEvent) []byte {
	b = append(b, `{"ev":"cycle","tick":`...)
	b = strconv.AppendInt(b, int64(ev.Tick), 10)
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(ev.PID), 10)
	if ev.Fail != NoFailure {
		b = append(b, `,"fail":`...)
		b = strconv.AppendInt(b, int64(ev.Fail), 10)
	}
	b = append(b, `,"started":`...)
	b = strconv.AppendBool(b, ev.Started)
	b = append(b, `,"completed":`...)
	b = strconv.AppendBool(b, ev.Completed)
	b = append(b, `,"writes":`...)
	b = strconv.AppendInt(b, int64(ev.Writes), 10)
	b = append(b, `,"arrayWrites":`...)
	b = strconv.AppendInt(b, int64(ev.ArrayWrites), 10)
	if ev.Halted {
		b = append(b, `,"halted":true`...)
	}
	return append(b, "}\n"...)
}

// appendTickLine appends ev's tick line.
func appendTickLine(b []byte, ev TickEvent) []byte {
	b = append(b, `{"ev":"tick","tick":`...)
	b = strconv.AppendInt(b, int64(ev.Tick), 10)
	b = append(b, `,"alive":`...)
	b = strconv.AppendInt(b, int64(ev.Alive), 10)
	b = append(b, `,"completed":`...)
	b = strconv.AppendInt(b, int64(ev.Completed), 10)
	b = append(b, `,"failures":`...)
	b = strconv.AppendInt(b, int64(ev.Failures), 10)
	b = append(b, `,"restarts":`...)
	b = strconv.AppendInt(b, int64(ev.Restarts), 10)
	return append(b, "}\n"...)
}

// appendBatchLine appends ev's batch line.
func appendBatchLine(b []byte, ev BatchEvent) []byte {
	b = append(b, `{"ev":"batch","from":`...)
	b = strconv.AppendInt(b, int64(ev.FromTick), 10)
	b = append(b, `,"ticks":`...)
	b = strconv.AppendInt(b, int64(ev.Ticks), 10)
	b = append(b, `,"alive":`...)
	b = strconv.AppendInt(b, int64(ev.Alive), 10)
	b = append(b, `,"completed":`...)
	b = strconv.AppendInt(b, ev.Completed, 10)
	return append(b, "}\n"...)
}

// Resume readies the sink to continue a trace it wrote, for a run
// resumed from a checkpoint at tick. It reads the trace from r and
// returns the length of its prefix that holds exactly the events of the
// ticks before tick: the cycle and tick lines of earlier ticks and the
// batch lines that end at or before it. A torn last line, the run line
// and everything after the first later event are cut. The sampling
// counter continues from the kept tick lines, whose alive counts sum to
// the cycle events before tick, so the caller truncates the trace to the
// returned length, appends, and gets the bytes an uninterrupted run
// writes.
func (j *JSONL) Resume(r io.Reader, tick int) (int64, error) {
	br := bufio.NewReader(r)
	var kept int64
	var cycles uint64
	for {
		line, err := br.ReadSlice('\n')
		if err == io.EOF || err == bufio.ErrBufferFull {
			// A torn last line, or one longer than any cycle, tick or
			// batch line: a run line.
			break
		}
		if err != nil {
			return 0, err
		}
		alive, ok := lineBefore(line, tick)
		if !ok {
			break
		}
		kept += int64(len(line))
		cycles += uint64(alive)
	}
	j.mu.Lock()
	j.cycles = cycles
	j.mu.Unlock()
	return kept, nil
}

// lineBefore reports whether a trace line belongs to the ticks before
// tick, and for a tick line its alive count.
func lineBefore(line []byte, tick int) (alive int, ok bool) {
	if t, _, ok := cutInt(line, `{"ev":"cycle","tick":`); ok {
		return 0, t < tick
	}
	if t, rest, ok := cutInt(line, `{"ev":"tick","tick":`); ok {
		a, _, ok := cutInt(rest, `,"alive":`)
		return a, ok && a >= 0 && t < tick
	}
	if from, rest, ok := cutInt(line, `{"ev":"batch","from":`); ok {
		k, _, ok := cutInt(rest, `,"ticks":`)
		return 0, ok && from+k <= tick
	}
	return 0, false
}

// cutInt parses the decimal integer that follows prefix at the start of
// b, returning it and the bytes after it.
func cutInt(b []byte, prefix string) (int, []byte, bool) {
	rest, ok := bytes.CutPrefix(b, []byte(prefix))
	if !ok {
		return 0, nil, false
	}
	i := 0
	if i < len(rest) && rest[i] == '-' {
		i++
	}
	for i < len(rest) && '0' <= rest[i] && rest[i] <= '9' {
		i++
	}
	n, err := strconv.Atoi(string(rest[:i]))
	return n, rest[i:], err == nil
}
