package rng

import (
	"math"
	"math/rand"
	"testing"
)

// TestCountingMatchesStandardSource pins the compatibility contract: a
// Counting source produces exactly the sequence of rand.NewSource for
// the same seed, both directly and through rand.New. Existing seeded
// runs must not change when a component switches to Counting. Each
// stream runs past draw 273 (the last computed without a register), 274
// (which builds it) and 607 (where the register wraps).
func TestCountingMatchesStandardSource(t *testing.T) {
	const draws = 2000
	// The edge seeds take special branches of math/rand's seed reduction
	// modulo 2³¹−1: 0 and its alias 89482311, multiples of the modulus,
	// negatives, and the int64 extremes. Random seeds of both signs follow.
	seeds := []int64{
		0, 89482311, 1, 7, -3, 1 << 40,
		int32max, -int32max, 2 * int32max, int32max - 1, int32max + 1, -int32max - 1,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	}
	r := rand.New(rand.NewSource(20260101))
	for i := 0; i < 150; i++ {
		seeds = append(seeds, r.Int63(), -r.Int63())
	}
	for _, seed := range seeds {
		want, got := rand.NewSource(seed).(rand.Source64), NewCounting(seed)
		for i := 0; i < draws; i++ {
			if i%3 == 2 {
				if w, g := want.Int63(), got.Int63(); w != g {
					t.Fatalf("seed %d: Int63 #%d = %d, want %d", seed, i, g, w)
				}
			} else if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: Uint64 #%d = %d, want %d", seed, i, g, w)
			}
		}
		wantR, gotR := rand.New(rand.NewSource(seed)), rand.New(NewCounting(seed))
		for i := 0; i < draws; i++ {
			if w, g := wantR.Float64(), gotR.Float64(); w != g {
				t.Fatalf("seed %d: Float64 #%d = %v, want %v", seed, i, g, w)
			}
			if w, g := wantR.Intn(7), gotR.Intn(7); w != g {
				t.Fatalf("seed %d: Intn #%d = %d, want %d", seed, i, g, w)
			}
			if w, g := wantR.Int31n(1<<30+1), gotR.Int31n(1<<30+1); w != g {
				t.Fatalf("seed %d: Int31n #%d = %d, want %d", seed, i, g, w)
			}
		}
	}
}

// TestCountingRestoreReplays checks that restoring (seed, draws) into a
// fresh source continues the original sequence bit-identically, even
// when the draws were made through rand.Rand helpers that consume a
// variable number of source values.
func TestCountingRestoreReplays(t *testing.T) {
	src := NewCounting(42)
	r := rand.New(src)
	for i := 0; i < 123; i++ {
		r.Float64()
		r.Intn(3)
	}
	seed, draws := src.State()
	if draws == 0 {
		t.Fatal("no draws recorded")
	}

	restored := NewCounting(0)
	restored.Restore(seed, draws)
	if s2, d2 := restored.State(); s2 != seed || d2 != draws {
		t.Fatalf("restored state = (%d, %d), want (%d, %d)", s2, d2, seed, draws)
	}
	r2 := rand.New(restored)
	for i := 0; i < 200; i++ {
		if w, g := r.Int63(), r2.Int63(); w != g {
			t.Fatalf("post-restore Int63 #%d = %d, want %d", i, g, w)
		}
	}

	// Restores on both sides of the register build and its wrap, into a
	// fresh source and into one whose register is already built.
	for _, d := range []uint64{0, 1, 272, 273, 274, 606, 607, 608, 5000} {
		for _, seed := range []int64{42, 0, -int32max, math.MinInt64} {
			used := NewCounting(^seed)
			for i := 0; i < 2*regLen; i++ {
				used.Uint64()
			}
			for _, c := range []*Counting{NewCounting(0), used} {
				c.Restore(seed, d)
				if s2, d2 := c.State(); s2 != seed || d2 != d {
					t.Fatalf("Restore(%d, %d): state = (%d, %d)", seed, d, s2, d2)
				}
				want := rand.NewSource(seed).(rand.Source64)
				for i := uint64(0); i < d; i++ {
					want.Uint64()
				}
				for i := 0; i < 2*regLen; i++ {
					if w, g := want.Uint64(), c.Uint64(); w != g {
						t.Fatalf("Restore(%d, %d): next draw %d = %d, want %d", seed, d, i, g, w)
					}
				}
			}
		}
	}
}

// TestCountingSeedResetsDraws checks Seed's contract, including on a
// source that has already built (and wrapped) its register.
func TestCountingSeedResetsDraws(t *testing.T) {
	src := NewCounting(1)
	src.Int63()
	src.Uint64()
	if _, draws := src.State(); draws != 2 {
		t.Fatalf("draws = %d, want 2", draws)
	}
	src.Seed(9)
	seed, draws := src.State()
	if seed != 9 || draws != 0 {
		t.Fatalf("state after Seed = (%d, %d), want (9, 0)", seed, draws)
	}
	want := rand.NewSource(9).(rand.Source64).Uint64()
	if got := src.Uint64(); got != want {
		t.Fatalf("first draw after Seed = %d, want %d", got, want)
	}

	for i := 0; i < 1000; i++ {
		src.Uint64()
	}
	for _, seed := range []int64{9, -5, 0} {
		src.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 2*regLen; i++ {
			if w, g := want.Uint64(), src.Uint64(); w != g {
				t.Fatalf("re-seeded %d over a built register: draw %d = %d, want %d", seed, i, g, w)
			}
		}
	}
}

var sink *Counting

// TestCountingSeedsWithoutRegister guards the lazy register: seeding and
// the first regTap draws allocate only the Counting itself, and the
// register is allocated once, at draw regTap+1, and reused by Seed. A
// source that builds its register eagerly, as math/rand's does, gives the
// same values but makes every short-lived stream allocate and fill 5 KB.
func TestCountingSeedsWithoutRegister(t *testing.T) {
	draw := func(c *Counting, n int) {
		for i := 0; i < n; i++ {
			c.Uint64()
		}
	}
	if a := testing.AllocsPerRun(100, func() { sink = NewCounting(7); draw(sink, regTap) }); a != 1 {
		t.Errorf("NewCounting + %d draws: %v allocs, want 1 (the Counting)", regTap, a)
	}
	if a := testing.AllocsPerRun(100, func() { sink = NewCounting(7); draw(sink, regTap+1) }); a != 2 {
		t.Errorf("NewCounting + %d draws: %v allocs, want 2 (the Counting and its register)", regTap+1, a)
	}
	if a := testing.AllocsPerRun(100, func() { sink.Seed(8); draw(sink, 2*regLen) }); a != 0 {
		t.Errorf("Seed + %d draws on a built register: %v allocs, want 0", 2*regLen, a)
	}
}

// FuzzCountingMatchesStandardSource compares a Counting source with
// rand.NewSource over draws values, restoring its (seed, draws) state
// into a source with a built register after restoreAt of them.
func FuzzCountingMatchesStandardSource(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, draws, restoreAt uint16) {
		want, got := rand.NewSource(seed).(rand.Source64), NewCounting(seed)
		for i := 0; i < int(draws); i++ {
			if i == int(restoreAt) {
				r := NewCounting(^seed)
				for j := 0; j < regLen; j++ {
					r.Uint64()
				}
				r.Restore(got.State())
				got = r
			}
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: draw %d = %d, want %d (restored after %d)", seed, i, g, w, restoreAt)
			}
		}
	})
}

// BenchmarkNewCounting measures what an ACC incarnation pays for its
// stream: seeding plus the first draw.
func BenchmarkNewCounting(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = NewCounting(int64(i))
		sink.Uint64()
	}
}
