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

// BenchmarkTrivialFillBigN measures a Write-All run at production scale
// end to end: the trivial assignment, failure-free, on packed memory
// driven through TickBatch on a pooled Runner, so its stride fills
// really commit (BenchmarkSteadyStateTickBigN's spinFill writes
// nothing). ns/tick and cells/s divide the whole runs, machine reset
// included, by the ticks they took and the cells they filled.
func BenchmarkTrivialFillBigN(b *testing.B) {
	const p = 1024
	for _, n := range []int{1e7, 1e8} {
		b.Run(fmt.Sprintf("n=1e%d/p=%d", len(fmt.Sprint(n))-1, p), func(b *testing.B) {
			r := &pram.Runner{BatchTicks: 4096}
			defer r.Close()
			cfg := pram.Config{N: n, P: p, Packed: true}
			alg := writeall.NewTrivial()
			run := func() int {
				m, err := r.Run(cfg, alg, adversary.None{})
				if err != nil {
					b.Fatal(err)
				}
				return m.Ticks
			}
			run() // allocate the pooled machine outside the timed runs
			ticks := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ticks += run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ticks), "ns/tick")
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}
