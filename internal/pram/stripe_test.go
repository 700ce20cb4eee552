package pram

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// fillCall is one FillStride a scripted processor makes per window.
type fillCall struct{ first, stride, count int }

// stripeScript is a hinted test algorithm whose processors make a fixed
// list of FillStride calls in every window — either through FillStride
// or, for the reference run, as one Write per cell. Memory holds the N
// hinted cells (packed when the config asks) plus tail unhinted,
// unpacked cells, so stripes can cross both boundaries.
type stripeScript struct {
	tail    int
	calls   [][]fillCall // calls[pid]
	perCell bool
}

func (s *stripeScript) Name() string                { return "stripe-script" }
func (s *stripeScript) MemorySize(n, p int) int     { return n + s.tail }
func (s *stripeScript) Setup(mem *Memory, n, p int) {}
func (s *stripeScript) NewProcessor(pid, n, p int) Processor {
	return &stripeScriptProc{s: s, pid: pid}
}
func (s *stripeScript) DoneCells(n, p int) int { return n }
func (s *stripeScript) Done(mem MemoryView, n, p int) bool {
	for i := 0; i < n; i++ {
		if mem.Load(i) == 0 {
			return false
		}
	}
	return true
}

type stripeScriptProc struct {
	s   *stripeScript
	pid int
}

func (p *stripeScriptProc) Cycle(ctx *Ctx) Status { return Continue }

func (p *stripeScriptProc) CycleBatch(b *BatchCtx, k int) (int, Status) {
	for _, c := range p.s.calls[p.pid] {
		if !p.s.perCell {
			b.FillStride(c.first, c.stride, c.count)
			continue
		}
		for j := 0; j < c.count; j++ {
			b.Write(c.first+j*c.stride, 1)
		}
	}
	b.Charge(0, 1)
	return k, Continue
}

// stripeRun commits one quiet window of the script and returns the final
// memory and how many stripes the window committed. It fails the test
// unless the done-hint counter matches a recount of the hinted cells.
func stripeRun(t *testing.T, n, p int, packed bool, script *stripeScript) ([]Word, int) {
	t.Helper()
	m := mustMachine(t, Config{N: n, P: p, Packed: packed}, script, quietAdv{})
	defer m.Close()
	before := m.bctx.stripes
	if _, err := m.runQuietWindow(2); err != nil {
		t.Fatalf("runQuietWindow: %v", err)
	}
	if recount := m.mem.zerosIn(0, m.hintLen); m.remaining != recount {
		t.Fatalf("remaining = %d, recount = %d", m.remaining, recount)
	}
	return m.mem.CopyInto(nil), m.bctx.stripes - before
}

// strideCalls returns calls[pid] = one stride of count cells from row
// row in column pid, for every pid in cols.
func strideCalls(p, row, count int, cols ...int) [][]fillCall {
	calls := make([][]fillCall, p)
	for _, c := range cols {
		calls[c] = []fillCall{{first: row*p + c, stride: p, count: count}}
	}
	return calls
}

func span(lo, hi int) []int {
	s := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		s = append(s, i)
	}
	return s
}

// TestFillStrideMatchesPerCellWrites holds FillStride to the per-cell
// Write reference on both memory layouts: identical final memory and an
// exact done-hint counter after the window, for stripes that tile whole
// rows, partial column runs, stripes broken by a skipped column or a
// different count, a short last row, rows that straddle words, and
// stripes crossing the hinted (and packed) prefix into the tail. It also
// pins how many stripes each window coalesces into.
func TestFillStrideMatchesPerCellWrites(t *testing.T) {
	type tc struct {
		name       string
		n, p, tail int
		calls      [][]fillCall
		stripes    int
	}
	// A short last row: N = 1000 is not a multiple of P = 96, so columns
	// below 1000 mod 96 = 40 own one more cell than the rest.
	shortLast := make([][]fillCall, 96)
	for pid := range shortLast {
		cnt := 10
		if pid < 1000%96 {
			cnt = 11
		}
		shortLast[pid] = []fillCall{{first: pid, stride: 96, count: cnt}}
	}
	mixed := strideCalls(8, 0, 5, span(0, 8)...)
	mixed[3] = []fillCall{{first: 3, stride: 4, count: 9}}
	twice := strideCalls(8, 1, 3, span(0, 8)...)
	twice[5] = append(twice[5], fillCall{first: 5, stride: 8, count: 1}, fillCall{first: 40, stride: 8, count: 0})
	cases := []tc{
		{"full-rows", 160, 8, 0, strideCalls(8, 0, 20, span(0, 8)...), 1},
		{"full-rows-p96", 960, 96, 0, strideCalls(96, 0, 10, span(0, 96)...), 1},
		{"full-rows-from-row-3", 960, 96, 0, strideCalls(96, 3, 5, span(0, 96)...), 1},
		{"partial-columns", 160, 8, 0, strideCalls(8, 2, 10, span(2, 6)...), 1},
		{"partial-columns-straddle-words", 1000, 96, 0, strideCalls(96, 1, 8, span(30, 90)...), 1},
		{"skipped-column", 160, 8, 0, strideCalls(8, 0, 20, 0, 1, 3, 4, 5, 6, 7), 2},
		{"different-count", 160, 8, 0, append(strideCalls(8, 0, 20, span(0, 4)...)[:4], strideCalls(8, 0, 19, span(0, 8)...)[4:]...), 2},
		{"different-row", 160, 8, 0, append(strideCalls(8, 0, 9, span(0, 4)...)[:4], strideCalls(8, 1, 9, span(0, 8)...)[4:]...), 2},
		{"different-stride", 160, 8, 0, mixed, 3},
		{"second-call-same-pid", 160, 8, 0, twice, 3},
		{"short-last-row", 1000, 96, 0, shortLast, 2},
		{"single-cells", 100, 4, 0, strideCalls(4, 7, 1, 1, 3), 2},
		{"crosses-hint-boundary", 1000, 96, 200, strideCalls(96, 9, 3, span(0, 96)...), 1},
		{"partial-crosses-hint-boundary", 1000, 96, 200, strideCalls(96, 9, 3, span(10, 70)...), 1},
		{"stride-one", 300, 4, 50, [][]fillCall{{{first: 280, stride: 1, count: 60}}, nil, nil, {{first: 3, stride: 1, count: 5}}}, 2},
		{"all-in-tail", 64, 4, 64, strideCalls(4, 17, 6, span(0, 4)...), 1},
		{"nothing", 64, 4, 0, make([][]fillCall, 4), 0},
	}
	for _, c := range cases {
		for _, packed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/packed=%v", c.name, packed), func(t *testing.T) {
				want, _ := stripeRun(t, c.n, c.p, packed, &stripeScript{tail: c.tail, calls: c.calls, perCell: true})
				got, stripes := stripeRun(t, c.n, c.p, packed, &stripeScript{tail: c.tail, calls: c.calls})
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("cell %d = %d after FillStride, %d after per-cell writes", i, got[i], want[i])
					}
				}
				if stripes != c.stripes {
					t.Errorf("window committed %d stripes, want %d", stripes, c.stripes)
				}
			})
		}
	}
}

// orderProbe fills stride pid+4j, j < 8; processor 3 then calls after.
type orderProbe struct {
	pid   int
	after func(b *BatchCtx)
}

func (o *orderProbe) Cycle(ctx *Ctx) Status { return Continue }

func (o *orderProbe) CycleBatch(b *BatchCtx, k int) (int, Status) {
	b.FillStride(o.pid, 4, 8)
	if o.pid == 3 {
		o.after(b)
	}
	b.Charge(1, 1)
	return k, Continue
}

// TestFillStrideCommitsBeforeAccess pins the flush rule: with a stripe
// pending — its cells from several processors' calls — a Write of 0
// ends at 0 and a Read sees the ones.
func TestFillStrideCommitsBeforeAccess(t *testing.T) {
	for _, packed := range []bool{false, true} {
		var seen [2]Word
		alg := &probeAlg{mk: func(pid int) Processor {
			return &orderProbe{pid: pid, after: func(b *BatchCtx) {
				b.Write(6, 0)
				b.FillStride(35, 4, 2)
				seen[0], seen[1] = b.Read(35), b.Read(39)
			}}
		}}
		m := mustMachine(t, Config{N: 64, P: 4, Packed: packed}, alg, quietAdv{})
		if _, err := m.runQuietWindow(2); err != nil {
			t.Fatalf("packed=%v: runQuietWindow: %v", packed, err)
		}
		if seen != [2]Word{1, 1} {
			t.Errorf("packed=%v: Read after FillStride saw %v, want [1 1]", packed, seen)
		}
		for addr := 0; addr < 40; addr++ {
			want := Word(1)
			if addr == 6 || addr >= 32 && addr != 35 && addr != 39 {
				want = 0
			}
			if got := m.mem.Load(addr); got != want {
				t.Errorf("packed=%v: cell %d = %d, want %d", packed, addr, got, want)
			}
		}
		if recount := m.mem.zerosIn(0, m.hintLen); m.remaining != recount {
			t.Errorf("packed=%v: remaining = %d, recount = %d", packed, m.remaining, recount)
		}
		m.Close()
	}
}

// probeAlg is a hinted algorithm whose processors come from mk.
type probeAlg struct{ mk func(pid int) Processor }

func (a *probeAlg) Name() string                         { return "probe" }
func (a *probeAlg) MemorySize(n, p int) int              { return n }
func (a *probeAlg) Setup(mem *Memory, n, p int)          {}
func (a *probeAlg) NewProcessor(pid, n, p int) Processor { return a.mk(pid) }
func (a *probeAlg) DoneCells(n, p int) int               { return n }
func (a *probeAlg) Done(mem MemoryView, n, p int) bool   { return false }

// TestFillStrideRejectsOutOfRange checks the argument guard: like
// FillOnes, a stride that leaves memory, starts outside it, or has a
// negative count or a non-positive stride panics naming the call.
func TestFillStrideRejectsOutOfRange(t *testing.T) {
	m := mustMachine(t, Config{N: 64, P: 4, Packed: true}, seqFill{}, quietAdv{})
	defer m.Close()
	b := &m.bctx
	b.m = m
	for _, c := range []fillCall{
		{first: 3, stride: 4, count: 17},
		{first: 64, stride: 4, count: 1},
		{first: -1, stride: 4, count: 1},
		{first: 0, stride: 4, count: -1},
		{first: 0, stride: 0, count: 1},
		{first: 1, stride: 1 << 62, count: 3},
	} {
		func() {
			defer func() {
				v := recover()
				msg, _ := v.(string)
				if !strings.HasPrefix(msg, "pram: FillStride(") || !strings.Contains(msg, "out of range (memory size 64)") {
					t.Errorf("FillStride(%d, %d, %d) panicked with %v, want an out-of-range panic",
						c.first, c.stride, c.count, v)
				}
			}()
			b.FillStride(c.first, c.stride, c.count)
		}()
	}
	// The last in-range cell and an empty call are fine.
	b.FillStride(3, 4, 16)
	b.FillStride(64, 4, 0)
	b.flush()
	if got := m.mem.Load(63); got != 1 {
		t.Errorf("cell 63 = %d after FillStride(3, 4, 16), want 1", got)
	}
}

// overBudget fills its stride, and processor 2 then declares more writes
// per cycle than the budget allows.
type overBudget struct{ pid int }

func (o *overBudget) Cycle(ctx *Ctx) Status { return Continue }

func (o *overBudget) CycleBatch(b *BatchCtx, k int) (int, Status) {
	b.FillStride(o.pid, 4, 8)
	b.Charge(0, 1+2*min(o.pid/2, 1))
	return k, Continue
}

// TestFillStrideCommitsBeforeError pins the flush rule on the error
// path: a window that fails the cycle budget leaves memory and the done
// hint as per-cell writes would — every stride made up to the failing
// processor committed, none after it.
func TestFillStrideCommitsBeforeError(t *testing.T) {
	for _, packed := range []bool{false, true} {
		m := mustMachine(t, Config{N: 64, P: 4, Packed: packed},
			&probeAlg{mk: func(pid int) Processor { return &overBudget{pid: pid} }}, quietAdv{})
		if _, err := m.runQuietWindow(2); !errors.Is(err, ErrCycleLimit) {
			t.Fatalf("packed=%v: runQuietWindow err = %v, want ErrCycleLimit", packed, err)
		}
		for addr := 0; addr < 32; addr++ {
			want := Word(0)
			if addr%4 <= 2 {
				want = 1
			}
			if got := m.mem.Load(addr); got != want {
				t.Errorf("packed=%v: cell %d = %d, want %d", packed, addr, got, want)
			}
		}
		if recount := m.mem.zerosIn(0, m.hintLen); m.remaining != recount {
			t.Errorf("packed=%v: remaining = %d, recount = %d", packed, m.remaining, recount)
		}
		m.Close()
	}
}
