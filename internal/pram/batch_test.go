package pram

import (
	"testing"
)

// quietAdv never acts and advertises permanent quiescence, enabling
// arbitrarily long quiet windows.
type quietAdv struct{}

func (quietAdv) Name() string              { return "quiet" }
func (quietAdv) Decide(v *View) Decision   { return Decision{} }
func (quietAdv) QuiescentFor(tick int) int { return 1 << 30 }

// seqFill is an ArrayDoneHinter probe: processor 0 sweeps the array one
// cell per tick (checkpointed in its stable counter), everyone else
// halts immediately — the in-package twin of writeall's sequential
// baseline, so batch-layer invariants can be asserted white-box.
type seqFill struct{}

func (seqFill) Name() string                         { return "seq-fill" }
func (seqFill) MemorySize(n, p int) int              { return n }
func (seqFill) Setup(mem *Memory, n, p int)          {}
func (seqFill) NewProcessor(pid, n, p int) Processor { return &seqFillProc{pid: pid, n: n} }
func (seqFill) DoneCells(n, p int) int               { return n }
func (seqFill) Done(mem MemoryView, n, p int) bool {
	for i := 0; i < n; i++ {
		if mem.Load(i) == 0 {
			return false
		}
	}
	return true
}

type seqFillProc struct{ pid, n int }

func (s *seqFillProc) Reset(pid, n, p int) { *s = seqFillProc{pid: pid, n: n} }

// SnapshotState and RestoreState implement Snapshotter: the sweep
// position lives in the stable counter, which the machine captures.
func (s *seqFillProc) SnapshotState() []Word           { return nil }
func (s *seqFillProc) RestoreState(state []Word) error { return nil }

func (s *seqFillProc) Cycle(ctx *Ctx) Status {
	if s.pid != 0 {
		return Halt
	}
	pos := int(ctx.Stable())
	if pos >= s.n {
		return Halt
	}
	ctx.Write(pos, 1)
	ctx.SetStable(Word(pos + 1))
	return Continue
}

func (s *seqFillProc) CycleBatch(b *BatchCtx, k int) (int, Status) {
	if s.pid != 0 {
		return 1, Halt
	}
	pos := int(b.Stable())
	if pos >= s.n {
		return 1, Halt
	}
	cnt := min(k, s.n-pos)
	b.FillOnes(pos, pos+cnt)
	b.SetStable(Word(pos + cnt))
	b.Charge(0, 1)
	return cnt, Continue
}

// spinFill is hinted but never writes, so its run never completes and
// quiet windows stay available forever — the steady-state fixture for
// the allocation test.
type spinFill struct{}

func (spinFill) Name() string                         { return "spin-fill" }
func (spinFill) MemorySize(n, p int) int              { return n }
func (spinFill) Setup(mem *Memory, n, p int)          {}
func (spinFill) NewProcessor(pid, n, p int) Processor { return spinFillProc{} }
func (spinFill) DoneCells(n, p int) int               { return n }
func (spinFill) Done(mem MemoryView, n, p int) bool   { return false }

type spinFillProc struct{}

func (spinFillProc) Cycle(ctx *Ctx) Status                       { return Continue }
func (spinFillProc) CycleBatch(b *BatchCtx, k int) (int, Status) { return k, Continue }

// stripeFill is the in-package twin of writeall's trivial algorithm:
// processor pid writes cells pid, pid+P, pid+2P, ..., one per cycle, and
// commits a window's cycles with one FillStride, so the strides of a
// failure-free window coalesce into one stripe.
type stripeFill struct{ seqFill }

func (stripeFill) Name() string { return "stripe-fill" }
func (stripeFill) NewProcessor(pid, n, p int) Processor {
	return &stripeFillProc{pid: pid, n: n, p: p}
}

type stripeFillProc struct{ pid, n, p, k int }

func (s *stripeFillProc) SnapshotState() []Word { return []Word{Word(s.k)} }

func (s *stripeFillProc) RestoreState(state []Word) error {
	if len(state) != 1 {
		return StateLenError("stripe-fill processor", len(state), 1)
	}
	s.k = int(state[0])
	return nil
}

func (s *stripeFillProc) Cycle(ctx *Ctx) Status {
	addr := s.pid + s.k*s.p
	if addr >= s.n {
		return Halt
	}
	ctx.Write(addr, 1)
	s.k++
	return Continue
}

func (s *stripeFillProc) CycleBatch(b *BatchCtx, k int) (int, Status) {
	first, cnt := s.pid+s.k*s.p, 0
	if first < s.n {
		cnt = min(k, (s.n-first+s.p-1)/s.p)
	}
	if cnt > 0 {
		b.FillStride(first, s.p, cnt)
		b.Charge(0, 1)
		s.k += cnt
	}
	if cnt < k {
		return cnt + 1, Halt
	}
	return k, Continue
}

// TestQuietWindowEngages guards against the batch fast path silently
// never firing (everything would still pass equivalence via the Step
// fallback): under a quiescent adversary and a batchable algorithm the
// machine must actually open multi-tick windows.
func TestQuietWindowEngages(t *testing.T) {
	for _, packed := range []bool{false, true} {
		m := mustMachine(t, Config{N: 256, P: 4, Packed: packed}, seqFill{}, quietAdv{})
		if w := m.quietWindow(64); w < 2 {
			t.Fatalf("packed=%v: quietWindow(64) = %d, want >= 2", packed, w)
		}
		ran, done, err := m.TickBatch(64)
		if err != nil {
			t.Fatalf("packed=%v: TickBatch: %v", packed, err)
		}
		if ran != 64 || done {
			t.Fatalf("packed=%v: TickBatch ran %d ticks (done=%v), want 64 mid-run", packed, ran, done)
		}
		m.Close()
	}
}

// TestDoneHintExactAcrossBatches is the regression for the done-hint
// counter under batching: after every TickBatch call the remaining-unset
// counter must equal an actual recount of zero cells in the hinted
// prefix (FillOnes and FillStride stripes decrement it once per
// committed word by popcount, not once per cell), and the hinted run
// must finish at the same tick, with the same metrics, as a per-tick run
// that polls Done directly. The stripe-fill row's P = 7 leaves a short
// last row and rows that straddle words.
func TestDoneHintExactAcrossBatches(t *testing.T) {
	for _, c := range []struct {
		alg Algorithm
		cfg Config
	}{
		{seqFill{}, Config{N: 300, P: 4}},
		{stripeFill{}, Config{N: 300, P: 7}},
	} {
		for _, packed := range []bool{false, true} {
			cfg := c.cfg
			cfg.Packed = packed

			m := mustMachine(t, cfg, c.alg, quietAdv{})
			for {
				_, done, err := m.TickBatch(17)
				if err != nil {
					t.Fatalf("%s packed=%v: TickBatch: %v", c.alg.Name(), packed, err)
				}
				if recount := m.mem.zerosIn(0, m.hintLen); m.remaining != recount {
					t.Fatalf("%s packed=%v at tick %d: remaining = %d, recount = %d",
						c.alg.Name(), packed, m.tick, m.remaining, recount)
				}
				if done {
					break
				}
			}
			hinted := m.Metrics()
			m.Close()

			// The polled twin: embedding the interface hides DoneCells,
			// which forces per-tick stepping (no hint, no quiet windows,
			// no packing) and a full Done scan every tick.
			pm := mustMachine(t, cfg, struct{ Algorithm }{c.alg}, quietAdv{})
			pmMetrics, err := pm.Run()
			if err != nil {
				t.Fatalf("%s packed=%v: polled Run: %v", c.alg.Name(), packed, err)
			}
			pm.Close()
			if hinted != pmMetrics {
				t.Errorf("%s packed=%v: hinted-Done and polled-Done runs diverge:\nhinted %+v\npolled %+v",
					c.alg.Name(), packed, hinted, pmMetrics)
			}
		}
	}
}

// TestBatchSinkReceivesWindows checks the sink opt-in: a BatchSink gets
// one BatchDone per committed window, covering the batched ticks.
type batchRecSink struct {
	ticks   []TickEvent
	batches []BatchEvent
}

func (s *batchRecSink) CycleDone(CycleEvent)    {}
func (s *batchRecSink) TickDone(ev TickEvent)   { s.ticks = append(s.ticks, ev) }
func (s *batchRecSink) RunDone(RunEvent)        {}
func (s *batchRecSink) BatchDone(ev BatchEvent) { s.batches = append(s.batches, ev) }

func TestBatchSinkReceivesWindows(t *testing.T) {
	sink := &batchRecSink{}
	m := mustMachine(t, Config{N: 256, P: 4, Packed: true, Sink: sink}, seqFill{}, quietAdv{})
	defer m.Close()
	for {
		_, done, err := m.TickBatch(64)
		if err != nil {
			t.Fatalf("TickBatch: %v", err)
		}
		if done {
			break
		}
	}
	if len(sink.batches) == 0 {
		t.Fatal("BatchSink received no BatchDone events")
	}
	covered := 0
	for _, ev := range sink.batches {
		if ev.Ticks < 2 {
			t.Errorf("window of %d ticks committed; windows are >= 2 by contract", ev.Ticks)
		}
		covered += ev.Ticks
	}
	if covered+len(sink.ticks) != m.Tick() {
		t.Errorf("windows cover %d ticks + %d per-tick events, machine at tick %d",
			covered, len(sink.ticks), m.Tick())
	}
}

// TestPlainSinkDisablesBatching pins the opt-out: with an ordinary Sink
// attached, TickBatch must deliver the exact per-tick event stream (no
// quiet windows), staying equivalent to a Step loop.
func TestPlainSinkDisablesBatching(t *testing.T) {
	var batched []TickEvent
	m := mustMachine(t, Config{N: 64, P: 4, Packed: true,
		Sink: TickFunc(func(ev TickEvent) { batched = append(batched, ev) })}, seqFill{}, quietAdv{})
	defer m.Close()
	for {
		_, done, err := m.TickBatch(64)
		if err != nil {
			t.Fatalf("TickBatch: %v", err)
		}
		if done {
			break
		}
	}

	var stepped []TickEvent
	sm := mustMachine(t, Config{N: 64, P: 4, Packed: true,
		Sink: TickFunc(func(ev TickEvent) { stepped = append(stepped, ev) })}, seqFill{}, quietAdv{})
	defer sm.Close()
	if _, err := sm.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	if len(batched) != len(stepped) {
		t.Fatalf("tick streams diverge: %d events batched, %d stepped", len(batched), len(stepped))
	}
	for i := range batched {
		if batched[i] != stepped[i] {
			t.Fatalf("tick event %d diverges: %+v vs %+v", i, batched[i], stepped[i])
		}
	}
}

// TestTickBatchAllocationFree keeps the batch hot path off the heap: a
// steady-state TickBatch loop must not allocate, with or without
// FillStride stripes to commit.
func TestTickBatchAllocationFree(t *testing.T) {
	for _, c := range []struct {
		alg Algorithm
		n   int
	}{
		{spinFill{}, 4096},
		// 2^18 cells at P = 8 take 32768 ticks to fill: more than the
		// warm-up and the measured batches of 256 ticks.
		{stripeFill{}, 1 << 18},
	} {
		m := mustMachine(t, Config{N: c.n, P: 8, Packed: true, MaxTicks: 1 << 60}, c.alg, quietAdv{})
		if _, _, err := m.TickBatch(256); err != nil { // warm up scratch state
			t.Fatalf("%s: TickBatch: %v", c.alg.Name(), err)
		}
		stripes := m.bctx.stripes
		allocs := testing.AllocsPerRun(100, func() {
			if _, done, err := m.TickBatch(256); done || err != nil {
				t.Fatalf("%s: TickBatch: done=%v err=%v", c.alg.Name(), done, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: TickBatch allocates %.1f times per 256-tick batch, want 0", c.alg.Name(), allocs)
		}
		if _, ok := c.alg.(stripeFill); ok && m.bctx.stripes == stripes {
			t.Errorf("%s: no stripe committed in the measured batches", c.alg.Name())
		}
		m.Close()
	}
}

// TestMemorySliceIsACopy is the aliasing regression: Slice is documented
// as a read-only view, and an earlier version returned a live alias of
// the machine's cells — writing through it corrupted shared memory.
func TestMemorySliceIsACopy(t *testing.T) {
	mem := &Memory{}
	mem.ResetPacked(128, 64)
	mem.Store(3, 1)
	mem.Store(100, 7)
	s := mem.Slice(0, 128)
	if s[3] != 1 || s[100] != 7 {
		t.Fatalf("Slice contents wrong: s[3]=%d s[100]=%d", s[3], s[100])
	}
	s[3], s[50], s[100] = 42, 42, 42
	if got := mem.Load(3); got != 1 {
		t.Errorf("writing the slice changed packed cell 3 to %d", got)
	}
	if got := mem.Load(50); got != 0 {
		t.Errorf("writing the slice changed packed cell 50 to %d", got)
	}
	if got := mem.Load(100); got != 7 {
		t.Errorf("writing the slice changed unpacked cell 100 to %d", got)
	}
}

// TestMachineImmuneToStaleSliceWrites proves no machine-state corruption
// through a retained Slice: scribbling over a mid-run slice must not
// change the run's outcome.
func TestMachineImmuneToStaleSliceWrites(t *testing.T) {
	run := func(scribble bool) (Metrics, []Word) {
		m := mustMachine(t, Config{N: 128, P: 4}, seqFill{}, quietAdv{})
		defer m.Close()
		for i := 0; i < 10; i++ {
			if done, err := m.Step(); done || err != nil {
				t.Fatalf("Step %d: done=%v err=%v", i, done, err)
			}
		}
		if scribble {
			s := m.Memory().Slice(0, 128)
			for i := range s {
				s[i] = 99
			}
		}
		metrics, err := m.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return metrics, m.Memory().CopyInto(nil)
	}

	cleanMetrics, cleanMem := run(false)
	dirtyMetrics, dirtyMem := run(true)
	if cleanMetrics != dirtyMetrics {
		t.Errorf("stale-slice writes changed metrics:\nclean %+v\ndirty %+v", cleanMetrics, dirtyMetrics)
	}
	for i := range cleanMem {
		if cleanMem[i] != dirtyMem[i] {
			t.Fatalf("stale-slice writes changed final memory at cell %d", i)
		}
	}
}
