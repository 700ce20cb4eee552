package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/adversary"
	"repro/internal/pram"
	"repro/internal/writeall"
)

// E18PackedBatch measures the word-packed shared memory and the batched
// tick kernel at Write-All production scale: the trivial assignment
// (P = 1024, failure-free) run three ways — per-tick stepping on
// unpacked memory, per-tick stepping on the packed layout, and the
// packed layout driven through TickBatch quiet windows. The three runs
// must produce identical metrics (the representation contract); the
// table reports wall-clock per mode and the step/batch ratio. At Full
// scale the N=10⁸ unpacked-step cell is skipped: 10⁸ one-word cells is
// 800 MB, the whole point of packing them into 12.5 MB of bit words.
func E18PackedBatch(ctx context.Context, s Sweep) []Table {
	const p = 1024
	sizes := []int{1 << 20, 1e7}
	if s.Scale == Full {
		sizes = []int{1e7, 1e8}
	}
	t := &Table{
		ID:     "E18",
		Title:  "word-packed memory + batched tick kernel at Write-All scale",
		Claim:  "Section 2.1 cell model: 64 binary Write-All cells pack into one word; amortizing per-tick bookkeeping over quiescent windows is observationally invisible and >= 10x faster at N >= 1e7",
		Header: []string{"N", "P", "ticks", "S", "step ms", "packed-step ms", "packed-batch ms", "step/batch"},
	}

	mode := func(n int, packed bool, batch int) (pram.Metrics, time.Duration, error) {
		r := &pram.Runner{BatchTicks: batch}
		defer r.Close()
		cfg := pram.Config{N: n, P: p, Packed: packed, MaxTicks: 1 << 30}
		start := time.Now()
		m, err := r.RunCtx(ctx, cfg, writeall.NewTrivial(), adversary.None{})
		return m, time.Since(start), err
	}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond)) }

	for _, n := range sizes {
		label := fmt.Sprintf("N=%d", n)
		if err := ctx.Err(); err != nil {
			t.fail(label, err)
			continue
		}
		batchM, batchD, err := mode(n, true, 4096)
		if err != nil {
			t.fail(label+" packed-batch", err)
			continue
		}
		packedM, packedD, err := mode(n, true, 0)
		if err != nil {
			t.fail(label+" packed-step", err)
			continue
		}
		if packedM != batchM {
			t.fail(label, fmt.Errorf("packed-batch metrics diverge from packed-step: %+v vs %+v", batchM, packedM))
			continue
		}

		stepCell, ratioBase := "—", packedD
		if n <= 2e7 {
			stepM, stepD, err := mode(n, false, 0)
			if err != nil {
				t.fail(label+" step", err)
				continue
			}
			if stepM != batchM {
				t.fail(label, fmt.Errorf("packed metrics diverge from unpacked: %+v vs %+v", batchM, stepM))
				continue
			}
			stepCell, ratioBase = ms(stepD), stepD
		}
		t.Rows = append(t.Rows, []string{
			itoa(int64(n)), itoa(int64(p)), itoa(int64(batchM.Ticks)), itoa(batchM.S()),
			stepCell, ms(packedD), ms(batchD),
			f2(float64(ratioBase) / float64(batchD)),
		})
	}
	t.Notes = append(t.Notes,
		"All modes of a row finish with identical metrics — packing and batching are",
		"layout/scheduling choices, never observable ones. The step/batch ratio is",
		"per-tick stepping over the batched run (packed-step when unpacked is skipped);",
		"wall-clock ratios are indicative. BenchmarkTrivialFillBigN times the",
		"packed-batch run alone; no gate-accepted report of it is committed.")
	return []Table{*t}
}
