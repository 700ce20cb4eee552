package bench

import (
	"context"

	"repro/internal/adversary"
	"repro/internal/pram"
	"repro/internal/writeall"
)

// E17CycleAudit addresses the paper's last open problem - "for the update
// cycles used in this work, what is the minimum number of reads and writes
// that are sufficient to assure efficient solutions?" - by auditing what
// each algorithm actually uses. The machine records per-cycle maxima;
// the paper's exposition budget is <= 4 reads and <= 2 writes.
func E17CycleAudit(ctx context.Context, s Sweep) []Table {
	n := 128
	if s.Scale == Full {
		n = 512
	}
	t := &Table{
		ID:     "E17",
		Title:  "update-cycle budget audit (observed per-cycle maxima)",
		Claim:  "Section 2.1 fixes <= 4 reads / <= 2 writes per update cycle; Section 5 asks for the minimum sufficient",
		Header: []string{"alg", "max reads", "max writes", "budget"},
	}
	type entry struct {
		mk       func() pram.Algorithm
		snapshot bool
	}
	entries := []entry{
		{mk: func() pram.Algorithm { return writeall.NewTrivial() }},
		{mk: func() pram.Algorithm { return writeall.NewSequential() }},
		{mk: func() pram.Algorithm { return writeall.NewReplicated() }},
		{mk: func() pram.Algorithm { return writeall.NewW() }},
		{mk: func() pram.Algorithm { return writeall.NewV() }},
		{mk: func() pram.Algorithm { return writeall.NewX() }},
		{mk: func() pram.Algorithm { return writeall.NewXInPlace() }},
		{mk: func() pram.Algorithm { return writeall.NewCombined() }},
		{mk: func() pram.Algorithm { return writeall.NewACC(7) }},
		{mk: func() pram.Algorithm { return writeall.NewOblivious() }, snapshot: true},
	}
	for _, e := range entries {
		alg := e.mk()
		// Exercise failure paths too, so recovery cycles are audited.
		adv := adversary.NewRandom(0.1, 0.6, 53)
		adv.MaxEvents = int64(n)
		cfg := pram.Config{N: n, P: n / 2, AllowSnapshot: e.snapshot}
		got, err := s.runWA(ctx, cfg, alg, adv)
		if err != nil {
			t.fail(alg.Name(), err)
			continue
		}
		budget := "within <=4r/<=2w"
		if e.snapshot {
			budget = "snapshot model (Thm 3.2)"
		} else if got.MaxReads > pram.MaxReadsPerCycle || got.MaxWrites > pram.MaxWritesPerCycle {
			budget = "EXCEEDED"
		}
		t.Rows = append(t.Rows, []string{
			alg.Name(), itoa(int64(got.MaxReads)), itoa(int64(got.MaxWrites)), budget,
		})
	}
	t.Notes = append(t.Notes,
		"the X family needs the full 4 reads (position, node, both children); W's",
		"stamped counting tree is the only structure needing 2 writes per cycle",
		"(count + stamp); everything else runs on 1 write and fewer reads -",
		"empirical input to the paper's minimum-budget question.")
	return []Table{*t}
}
