package pram_test

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/pram"
	"repro/internal/writeall"
)

// stripeSink records how many FillStride stripes each quiet window
// committed.
type stripeSink struct {
	m       *pram.Machine
	last    int
	windows []int
}

func (s *stripeSink) CycleDone(pram.CycleEvent) {}
func (s *stripeSink) TickDone(pram.TickEvent)   {}
func (s *stripeSink) RunDone(pram.RunEvent)     {}
func (s *stripeSink) BatchDone(pram.BatchEvent) {
	n := s.m.StripeCommits()
	s.windows = append(s.windows, n-s.last)
	s.last = n
}

// TestTrivialWindowCommitsOneStripe pins the coalescing the trivial
// algorithm's big-N speed rests on: in a failure-free window its P = 1024
// strides tile whole rows, so the window commits as one stripe. If the
// PID-order merge broke, every result would stay right while each window
// fell back to 1024 stripes of one column — this test is what notices.
// N leaves a short last row of 300 cells, which the run finishes per
// tick after its windows, so every window tiles whole rows.
func TestTrivialWindowCommitsOneStripe(t *testing.T) {
	const n, p = 1<<20 + 300, 1024
	for _, packed := range []bool{false, true} {
		sink := &stripeSink{}
		m, err := pram.New(pram.Config{N: n, P: p, Packed: packed, Sink: sink}, writeall.NewTrivial(), adversary.None{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		sink.m = m
		for {
			_, done, err := m.TickBatch(256)
			if err != nil {
				t.Fatalf("packed=%v: TickBatch: %v", packed, err)
			}
			if done {
				break
			}
		}
		if got := m.Metrics(); got.S() != n+p-300 || got.Ticks != 1025 {
			t.Errorf("packed=%v: S = %d in %d ticks, want %d in 1025", packed, got.S(), got.Ticks, n+p-300)
		}
		m.Close()
		if len(sink.windows) < 4 {
			t.Fatalf("packed=%v: %d quiet windows, want at least 4", packed, len(sink.windows))
		}
		for i, s := range sink.windows {
			if s != 1 {
				t.Errorf("packed=%v: window %d committed %d stripes, want 1", packed, i, s)
			}
		}
	}
}

// TestTrivialRunDirtiesExactlyItsArray pins the dirty bounds that let a
// big-N run skip memory it knows is zero: resets clear, done-hint scans
// read and fills popcount only below them. A bound that runs ahead of
// the writes stays correct but quietly reads the whole array again, so
// only a test of the bounds themselves notices. After Reset and Setup
// both bounds are 0. Each tick of a failure-free trivial run fills the
// next row of P cells, so after t ticks the bound covers exactly the
// first t·P cells: t·P/64 packed words, or t·P cells unpacked, ending at
// N/64 words or N cells. The next Reset brings both back to 0.
func TestTrivialRunDirtiesExactlyItsArray(t *testing.T) {
	const n, p = 1 << 16, 1024
	for _, packed := range []bool{true, false} {
		cfg := pram.Config{N: n, P: p, Packed: packed}
		alg := writeall.NewTrivial()
		m, err := pram.New(cfg, alg, adversary.None{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for run := 0; run < 2; run++ {
			if w, c := m.DirtyBounds(); w != 0 || c != 0 {
				t.Fatalf("packed=%v run %d: dirty bounds after Reset and Setup = %d words, %d cells, want 0, 0", packed, run, w, c)
			}
			for done := false; !done; {
				if _, done, err = m.TickBatch(4); err != nil {
					t.Fatalf("packed=%v: TickBatch: %v", packed, err)
				}
				filled := min(m.Tick()*p, n)
				wantWords, wantCells := filled/64, 0
				if !packed {
					wantWords, wantCells = 0, filled
				}
				if w, c := m.DirtyBounds(); w != wantWords || c != wantCells {
					t.Fatalf("packed=%v run %d tick %d: dirty bounds = %d words, %d cells, want %d, %d", packed, run, m.Tick(), w, c, wantWords, wantCells)
				}
			}
			if err := m.Reset(cfg, alg, adversary.None{}); err != nil {
				t.Fatalf("Reset: %v", err)
			}
		}
		m.Close()
	}
}

// BenchmarkTrivialFillBigN measures a Write-All run at production scale
// end to end: the trivial assignment, failure-free, on packed memory
// driven through TickBatch, so its stride fills really commit
// (BenchmarkSteadyStateTickBigN's spinFill writes nothing). The pooled
// rows reuse one Runner, as engine.ExecuteRun does, so each run pays a
// machine reset; the fresh row builds a new Runner for every run, as
// cmd/writeall and E18 do, so it pays no reset clear and fills freshly
// allocated memory instead. ns/tick and cells/s divide the whole runs,
// machine reset or construction included, by the ticks they took and
// the cells they filled.
func BenchmarkTrivialFillBigN(b *testing.B) {
	const p = 1024
	for _, row := range []struct {
		n     int
		fresh bool
	}{{1e7, false}, {1e8, false}, {1e8, true}} {
		name := fmt.Sprintf("n=1e%d/p=%d", len(fmt.Sprint(row.n))-1, p)
		if row.fresh {
			name += "/fresh"
		}
		b.Run(name, func(b *testing.B) {
			pooled := &pram.Runner{BatchTicks: 4096}
			defer pooled.Close()
			cfg := pram.Config{N: row.n, P: p, Packed: true}
			alg := writeall.NewTrivial()
			run := func() int {
				r := pooled
				if row.fresh {
					r = &pram.Runner{BatchTicks: 4096}
					defer r.Close()
				}
				m, err := r.Run(cfg, alg, adversary.None{})
				if err != nil {
					b.Fatal(err)
				}
				return m.Ticks
			}
			run() // the pooled rows allocate their machine outside the timed runs
			ticks := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ticks += run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ticks), "ns/tick")
			b.ReportMetric(float64(row.n)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}
