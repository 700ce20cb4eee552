package bench

import (
	"context"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/pram"
	"repro/internal/writeall"
)

// E18PackedBatch checks the word-packed shared memory and the batched
// tick kernel at Write-All production scale: the trivial assignment
// (P = 1024, failure-free) run three ways — per-tick stepping on
// unpacked memory, per-tick stepping on the packed layout, and the
// packed layout driven through TickBatch quiet windows. The three runs
// must produce identical metrics (the representation contract), and
// each is bounded by the sweep's point deadline. The table holds only
// what the runs compute, so it is the same in every sweep; the speed of
// the modes is left to BenchmarkTrivialFillBigN and the end-to-end
// benchmark's bigN-quiet workload. At Full scale the N=10⁸ unpacked
// run is skipped: 10⁸ one-word cells is 800 MB, the whole point of
// packing them into 12.5 MB of bit words.
func E18PackedBatch(ctx context.Context, s Sweep) []Table {
	const p = 1024
	sizes := []int{1 << 20, 1e7}
	if s.Scale == Full {
		sizes = []int{1e7, 1e8}
	}
	t := &Table{
		ID:     "E18",
		Title:  "word-packed memory + batched tick kernel at Write-All scale",
		Claim:  "Section 2.1 cell model: 64 binary Write-All cells pack into one word, and amortizing per-tick bookkeeping over quiescent windows is observationally invisible",
		Header: []string{"N", "P", "ticks", "S"},
	}

	mode := func(n int, packed bool, batch int) (pram.Metrics, error) {
		r := &pram.Runner{BatchTicks: batch}
		defer r.Close()
		pctx, cancel := s.pointCtx(ctx)
		defer cancel()
		cfg := pram.Config{N: n, P: p, Packed: packed, MaxTicks: 1 << 30}
		return r.RunCtx(pctx, cfg, writeall.NewTrivial(), adversary.None{})
	}

	for _, n := range sizes {
		label := fmt.Sprintf("N=%d", n)
		if err := ctx.Err(); err != nil {
			t.fail(label, err)
			continue
		}
		batchM, err := mode(n, true, 4096)
		if err != nil {
			t.fail(label+" packed-batch", err)
			continue
		}
		packedM, err := mode(n, true, 0)
		if err != nil {
			t.fail(label+" packed-step", err)
			continue
		}
		if packedM != batchM {
			t.fail(label, fmt.Errorf("packed-batch metrics diverge from packed-step: %+v vs %+v", batchM, packedM))
			continue
		}
		if n <= 2e7 {
			stepM, err := mode(n, false, 0)
			if err != nil {
				t.fail(label+" step", err)
				continue
			}
			if stepM != batchM {
				t.fail(label, fmt.Errorf("packed metrics diverge from unpacked: %+v vs %+v", batchM, stepM))
				continue
			}
		}
		t.Rows = append(t.Rows, []string{
			itoa(int64(n)), itoa(int64(p)), itoa(int64(batchM.Ticks)), itoa(batchM.S()),
		})
	}
	t.Notes = append(t.Notes,
		"All modes of a row finish with identical metrics — packing and batching are",
		"layout/scheduling choices, never observable ones. Their speed is measured by",
		"BenchmarkTrivialFillBigN and the end-to-end benchmark's bigN-quiet workload,",
		"not here: a wall-clock column would differ between any two sweeps.")
	return []Table{*t}
}
