package core

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/adversary"
	"repro/internal/pram"
	"repro/internal/prog"
)

func TestStampEncoding(t *testing.T) {
	tests := []struct {
		stamp pram.Word
		val   int
	}{
		{stamp: 0, val: 0},
		{stamp: 1, val: 1},
		{stamp: 7, val: 123456},
		{stamp: 1 << 20, val: 1<<32 - 1},
	}
	for _, tt := range tests {
		w := enc(tt.stamp, tt.val)
		if got := stampOf(w); got != tt.stamp {
			t.Errorf("stampOf(enc(%d,%d)) = %d", tt.stamp, tt.val, got)
		}
		if got := valOf(w); got != tt.val {
			t.Errorf("valOf(enc(%d,%d)) = %d", tt.stamp, tt.val, got)
		}
	}
}

func TestStampEncodingProperty(t *testing.T) {
	f := func(stamp uint16, val uint32) bool {
		w := enc(pram.Word(stamp), int(val))
		return stampOf(w) == pram.Word(stamp) && valOf(w) == int(val)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLayoutRegionsAreDisjoint(t *testing.T) {
	for _, tt := range []struct{ n, p, msim int }{
		{n: 1, p: 1, msim: 1},
		{n: 16, p: 4, msim: 32},
		{n: 100, p: 10, msim: 200},
	} {
		l := newLayout(tt.n, tt.p, tt.msim)
		if l.phase != 0 || l.start != 1 {
			t.Errorf("phase/start cells = %d/%d, want 0/1", l.phase, l.start)
		}
		if l.simBase != 2 {
			t.Errorf("simBase = %d, want 2", l.simBase)
		}
		if l.scrBase != l.simBase+tt.msim {
			t.Errorf("scrBase = %d, want %d", l.scrBase, l.simBase+tt.msim)
		}
		if l.tree.Base != l.scrBase+2*tt.n {
			t.Errorf("tree base = %d, want %d", l.tree.Base, l.scrBase+2*tt.n)
		}
		if l.vBase != l.tree.Base+l.tree.Size() {
			t.Errorf("vBase = %d, want %d", l.vBase, l.tree.Base+l.tree.Size())
		}
		// Scratch addressing: per-processor pairs, adjacent.
		for i := 0; i < tt.n; i++ {
			if l.scrV(i) != l.scrA(i)+1 {
				t.Errorf("scrV(%d) = %d, want scrA+1", i, l.scrV(i))
			}
		}
	}
}

func TestFullyPadded(t *testing.T) {
	l := newLayout(5, 2, 5) // TreeN = 8; elements 5,6,7 are padding
	tests := []struct {
		node int
		want bool
	}{
		{node: 1, want: false}, // root covers real elements
		{node: l.tree.Leaf(4), want: false},
		{node: l.tree.Leaf(5), want: true},
		{node: l.tree.Leaf(7), want: true},
		{node: 7, want: true},  // covers leaves 6,7
		{node: 3, want: false}, // covers leaves 4..7 (4 is real)
	}
	for _, tt := range tests {
		if got := l.fullyPadded(tt.node); got != tt.want {
			t.Errorf("fullyPadded(%d) = %v, want %v", tt.node, got, tt.want)
		}
	}
}

func TestPaddedUnder(t *testing.T) {
	// N = 70, block size 7 => 10 real blocks, padded to 16.
	l := newLayout(70, 4, 70)
	if l.vRealBlocks != 10 || l.vBlocks != 16 {
		t.Fatalf("blocks = %d real / %d total; expected 10/16", l.vRealBlocks, l.vBlocks)
	}
	e := &execVProc{lay: l}
	tests := []struct {
		node int
		want int
	}{
		{node: 1, want: 6},              // root: all 6 padding blocks
		{node: 2, want: 0},              // left half: blocks 0-7, all real
		{node: 3, want: 6},              // right half: blocks 8-15, of which 10-15 are padding
		{node: l.vBlocks + 9, want: 0},  // last real block leaf
		{node: l.vBlocks + 10, want: 1}, // first padding leaf
		{node: l.vBlocks + 15, want: 1}, // last padding leaf
	}
	for _, tt := range tests {
		if got := e.paddedUnder(tt.node); got != tt.want {
			t.Errorf("paddedUnder(%d) = %d, want %d", tt.node, got, tt.want)
		}
	}
}

func TestLeavesUnderBlockTree(t *testing.T) {
	l := newLayout(64, 4, 64)
	e := &execVProc{lay: l}
	if got := e.leavesUnder(1); got != l.vBlocks {
		t.Errorf("leavesUnder(root) = %d, want %d", got, l.vBlocks)
	}
	if got := e.leavesUnder(l.vBlocks); got != 1 {
		t.Errorf("leavesUnder(first leaf) = %d, want 1", got)
	}
	if got := e.leavesUnder(2); got != l.vBlocks/2 {
		t.Errorf("leavesUnder(2) = %d, want %d", got, l.vBlocks/2)
	}
}

func TestStampedDecoding(t *testing.T) {
	e := &execVProc{}
	if got := e.stamped(enc(5, 9), 5); got != 9 {
		t.Errorf("stamped(current phase) = %d, want 9", got)
	}
	if got := e.stamped(enc(4, 9), 5); got != 0 {
		t.Errorf("stamped(old phase) = %d, want 0", got)
	}
	if got := e.stamped(0, 5); got != 0 {
		t.Errorf("stamped(zero) = %d, want 0", got)
	}
}

// TestExecutorWorkPinned pins the robust executor's exact accounting
// (S, S′, ticks and |F|) for the three programs the service benchmark
// simulates, at N = P = 128 under the random adversary, and for
// prefix-sum at N = P = 64 under the thrasher, which restarts 63
// processors every tick, for both engines. The values were recorded
// while every restart still built its processor through NewProcessor,
// so they hold the in-place Reset to Resettable's contract: a restarted
// processor is indistinguishable from a fresh one. Each case runs twice
// on one pram.Runner with the same Executor: the first run builds a
// fresh machine, the second recycles every processor the first left
// behind, and both must match the pins and end in the same memory.
// MaxTicks is a few times the longest run, so a Reset that stalls
// progress fails with ErrTickLimit instead of running on. (One that keeps
// V's phase and joined is worse: V then descends from position 0 and
// paddedUnder(0) never returns, so only the test timeout stops it.)
func TestExecutorWorkPinned(t *testing.T) {
	type pin struct {
		s, sPrime int64
		ticks     int
		f         int64
	}
	input := make([]pram.Word, 128)
	for i := range input {
		input[i] = pram.Word((i*7919 + 13) % 512)
	}
	random := func(seed int64) func() pram.Adversary {
		return func() pram.Adversary { return adversary.NewRandom(0.05, 0.5, seed) }
	}
	for _, tc := range []struct {
		prog  Program
		p     int
		adv   func() pram.Adversary
		vx, x pin
	}{
		{prog.PrefixSum{N: 128}, 128, random(1),
			pin{56872, 56872, 514, 5907}, pin{29391, 29391, 266, 3113}},
		{prog.ReduceSum{N: 128}, 128, random(2),
			pin{55623, 55623, 500, 5632}, pin{29931, 29931, 268, 2958}},
		{prog.OddEvenSort{N: 128, Input: input}, 128, random(3),
			pin{1029813, 1029813, 9314, 108105}, pin{548804, 548804, 4965, 57701}},
		{prog.PrefixSum{N: 64}, 64, func() pram.Adversary { return &adversary.Thrashing{} },
			pin{3983, 129479, 3983, 250929}, pin{4884, 158730, 4884, 307692}},
	} {
		for _, engine := range []Engine{EngineVX, EngineX} {
			want := tc.vx
			if engine == EngineX {
				want = tc.x
			}
			name := fmt.Sprintf("%s/%s/%s", tc.prog.Name(), tc.adv().Name(), engine)
			t.Run(name, func(t *testing.T) {
				cfg, err := machineConfig(tc.prog, tc.p, pram.Config{MaxTicks: 1 << 15})
				if err != nil {
					t.Fatal(err)
				}
				r := &pram.Runner{}
				defer r.Close()
				exec := NewExecutorWithEngine(tc.prog, engine)
				var first []pram.Word
				for run := 1; run <= 2; run++ {
					m, err := r.Machine(cfg, exec, tc.adv())
					if err != nil {
						t.Fatalf("run %d: %v", run, err)
					}
					met, err := m.Run()
					if err != nil {
						t.Fatalf("run %d: %v", run, err)
					}
					if got := (pin{met.S(), met.SPrime(), met.Ticks, met.FSize()}); got != want {
						t.Errorf("run %d: (S, S′, ticks, |F|) = %v, want %v", run, got, want)
					}
					mem := SimMemory(m.Memory(), tc.prog)
					if run == 1 {
						first = mem
					} else if !reflect.DeepEqual(mem, first) {
						t.Errorf("run 2's simulated memory differs from run 1's")
					}
				}
			})
		}
	}
}
