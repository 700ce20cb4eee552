package bench

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/adversary"
	"repro/internal/pram"
	"repro/internal/writeall"
)

// runWACapped runs a Write-All instance that is allowed to hit the tick
// limit (for demonstrating non-termination); finished reports whether the
// task completed. Other run errors are returned for per-point capture.
func (s Sweep) runWACapped(ctx context.Context, cfg pram.Config, alg pram.Algorithm, adv pram.Adversary) (m pram.Metrics, finished bool, err error) {
	got, err := s.runWA(ctx, cfg, alg, adv)
	if err != nil {
		if errors.Is(err, pram.ErrTickLimit) {
			return got, false, nil
		}
		return got, false, err
	}
	return got, true, nil
}

// E1Thrashing reproduces Example 2.2: under the thrashing adversary the
// charge-everything work S' is Theta(N*P) while the completed work S stays
// linear, which is why the paper charges only completed update cycles.
func E1Thrashing(ctx context.Context, s Sweep) []Table {
	sizes := []int{32, 64, 128, 256}
	if s.Scale == Full {
		sizes = []int{128, 256, 512, 1024}
	}
	t := &Table{
		ID:     "E1",
		Title:  "thrashing adversary: S vs S' (P = N)",
		Claim:  "Example 2.2: S' = Omega(N*P) quadratic; completed-work S stays subquadratic",
		Header: []string{"alg", "N", "ticks", "S", "S'", "S/N", "S'/(N*P)"},
	}
	mks := []func() pram.Algorithm{
		func() pram.Algorithm { return writeall.NewTrivial() },
		func() pram.Algorithm { return writeall.NewX() },
	}
	type job struct {
		n  int
		mk func() pram.Algorithm
	}
	var jobs []job
	for _, n := range sizes {
		for _, mk := range mks {
			jobs = append(jobs, job{n, mk})
		}
	}
	type point struct {
		name string
		got  pram.Metrics
		err  error
	}
	points := Points(s, len(jobs), func(i int) point {
		alg := jobs[i].mk()
		got, err := s.runWA(ctx, pram.Config{N: jobs[i].n, P: jobs[i].n}, alg, &adversary.Thrashing{})
		return point{alg.Name(), got, err}
	})
	for i, pt := range points {
		n, got := jobs[i].n, pt.got
		if pt.err != nil {
			t.fail(fmt.Sprintf("%s N=%d", pt.name, n), pt.err)
			continue
		}
		t.Rows = append(t.Rows, []string{
			pt.name, itoa(int64(n)), itoa(int64(got.Ticks)),
			itoa(got.S()), itoa(got.SPrime()),
			f2(float64(got.S()) / float64(n)),
			f2(float64(got.SPrime()) / float64(n*n)),
		})
	}
	t.Notes = append(t.Notes,
		"S'/(N*P) stays near a constant (quadratic blow-up); S/N stays small: only the",
		"completed-cycle measure separates thrashing from real work, as Section 2.2 argues.")
	return []Table{*t}
}

// E2LowerBound reproduces Theorem 3.1: the halving adversary forces
// Omega(N log N) completed work on every algorithm.
func E2LowerBound(ctx context.Context, s Sweep) []Table {
	sizes := []int{64, 128, 256, 512}
	if s.Scale == Full {
		sizes = []int{256, 512, 1024, 2048, 4096}
	}
	t := &Table{
		ID:     "E2",
		Title:  "halving adversary work (P = N)",
		Claim:  "Theorem 3.1: any algorithm performs S = Omega(N log N)",
		Header: []string{"alg", "N", "S", "S/(N log N)"},
	}
	algs := func() []pram.Algorithm {
		return []pram.Algorithm{writeall.NewX(), writeall.NewV(), writeall.NewCombined()}
	}
	type fit struct{ xs, ys []float64 }
	fits := make(map[string]*fit)
	type job struct {
		n, algIdx int
	}
	var jobs []job
	for _, n := range sizes {
		for i := range algs() {
			jobs = append(jobs, job{n, i})
		}
	}
	points := Points(s, len(jobs), func(i int) outcome {
		n := jobs[i].n
		got, err := s.runWA(ctx, pram.Config{N: n, P: n}, algs()[jobs[i].algIdx], adversary.NewHalving())
		return outcome{got, err}
	})
	for i, pt := range points {
		n, alg := jobs[i].n, algs()[jobs[i].algIdx]
		if pt.err != nil {
			t.fail(fmt.Sprintf("%s N=%d", alg.Name(), n), pt.err)
			continue
		}
		got := pt.m
		t.Rows = append(t.Rows, []string{
			alg.Name(), itoa(int64(n)), itoa(got.S()),
			f2(float64(got.S()) / (float64(n) * log2(n))),
		})
		f := fits[alg.Name()]
		if f == nil {
			f = &fit{}
			fits[alg.Name()] = f
		}
		f.xs = append(f.xs, float64(n))
		f.ys = append(f.ys, float64(got.S()))
	}
	for _, alg := range algs() {
		f := fits[alg.Name()]
		if f == nil {
			continue // every point of this algorithm degraded
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s: fitted exponent of S vs N = %.3f (super-linear, consistent with N log N)",
			alg.Name(), Slope(f.xs, f.ys)))
	}
	t.Notes = append(t.Notes,
		"S/(N log N) is bounded below by a constant for every algorithm: the lower bound binds.")
	var series []Series
	marks := []rune{'x', 'v', '+'}
	for i, alg := range algs() {
		f := fits[alg.Name()]
		if f == nil {
			continue
		}
		series = append(series, Series{Label: alg.Name(), Mark: marks[i%len(marks)], Xs: f.xs, Ys: f.ys})
	}
	t.Notes = append(t.Notes, PlotLogLog("work under the halving adversary", series, 48, 10)...)
	return []Table{*t}
}

// E3Oblivious reproduces Theorem 3.2: in the unit-cost snapshot model the
// oblivious strategy matches the lower bound at O(N log N).
func E3Oblivious(ctx context.Context, s Sweep) []Table {
	sizes := []int{64, 128, 256, 512}
	if s.Scale == Full {
		sizes = []int{128, 256, 512, 1024}
	}
	t := &Table{
		ID:     "E3",
		Title:  "oblivious snapshot algorithm (P = N, unit-cost whole-memory reads)",
		Claim:  "Theorem 3.2: completed work S = Theta(N log N) under any failure/restart pattern",
		Header: []string{"adversary", "N", "S", "S/(N log N)"},
	}
	mkAdvs := []func() pram.Adversary{
		func() pram.Adversary { return adversary.NewHalving() },
		func() pram.Adversary { return &adversary.Thrashing{} },
		func() pram.Adversary { return adversary.None{} },
	}
	type job struct {
		n, advIdx int
	}
	var jobs []job
	for _, n := range sizes {
		for i := range mkAdvs {
			jobs = append(jobs, job{n, i})
		}
	}
	points := Points(s, len(jobs), func(i int) outcome {
		cfg := pram.Config{N: jobs[i].n, P: jobs[i].n, AllowSnapshot: true}
		got, err := s.runWA(ctx, cfg, writeall.NewOblivious(), mkAdvs[jobs[i].advIdx]())
		return outcome{got, err}
	})
	var xs, ys []float64
	for i, pt := range points {
		n, adv := jobs[i].n, mkAdvs[jobs[i].advIdx]()
		if pt.err != nil {
			t.fail(fmt.Sprintf("%s N=%d", adv.Name(), n), pt.err)
			continue
		}
		got := pt.m
		t.Rows = append(t.Rows, []string{
			adv.Name(), itoa(int64(n)), itoa(got.S()),
			f2(float64(got.S()) / (float64(n) * log2(n))),
		})
		if adv.Name() == "halving" {
			xs = append(xs, float64(n))
			ys = append(ys, float64(got.S()))
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("fitted exponent under halving = %.3f; S/(N log N) bounded above:", Slope(xs, ys)),
		"the strong-model upper bound matches the Theorem 3.1 lower bound.")
	return []Table{*t}
}

// E4VFailStop reproduces Lemma 4.2: V's completed work under fail-stop
// failures without restarts is O(N + P log^2 N).
func E4VFailStop(ctx context.Context, s Sweep) []Table {
	sizes := []int{128, 256, 512}
	if s.Scale == Full {
		sizes = []int{256, 512, 1024, 2048, 4096}
	}
	t := &Table{
		ID:     "E4",
		Title:  "algorithm V under fail-stop (no restart) failures",
		Claim:  "Lemma 4.2: S = O(N + P log^2 N)",
		Header: []string{"N", "P", "|F|", "S", "S/(N + P log^2 N)"},
	}
	type job struct {
		n, p int
	}
	var jobs []job
	for _, n := range sizes {
		l2 := int(log2(n))
		for _, p := range []int{n, max(1, n/(l2*l2))} {
			jobs = append(jobs, job{n, p})
		}
	}
	points := Points(s, len(jobs), func(i int) outcome {
		adv := adversary.NewRandom(0.02, 0, 5)
		adv.MaxEvents = int64(jobs[i].p) / 2
		got, err := s.runWA(ctx, pram.Config{N: jobs[i].n, P: jobs[i].p}, writeall.NewV(), adv)
		return outcome{got, err}
	})
	for i, pt := range points {
		n, p := jobs[i].n, jobs[i].p
		if pt.err != nil {
			t.fail(fmt.Sprintf("N=%d P=%d", n, p), pt.err)
			continue
		}
		got := pt.m
		bound := float64(n) + float64(p)*log2(n)*log2(n)
		t.Rows = append(t.Rows, []string{
			itoa(int64(n)), itoa(int64(p)), itoa(got.FSize()), itoa(got.S()),
			f2(float64(got.S()) / bound),
		})
	}
	t.Notes = append(t.Notes,
		"the ratio S/(N + P log^2 N) stays bounded across N and both processor regimes.")
	return []Table{*t}
}

// E5VRestart reproduces Theorem 4.3: each failure/restart event costs V at
// most O(log N) extra completed work.
func E5VRestart(ctx context.Context, s Sweep) []Table {
	n := 512
	if s.Scale == Full {
		n = 2048
	}
	l2 := int(log2(n))
	p := max(2, n/(l2*l2))
	t := &Table{
		ID:     "E5",
		Title:  fmt.Sprintf("algorithm V restart overhead (N=%d, P=%d)", n, p),
		Claim:  "Theorem 4.3: S = O(N + P log^2 N + M log N); extra work per event is O(log N)",
		Header: []string{"M target", "|F|", "S", "S - S0", "(S-S0)/(|F| log N)"},
	}
	var s0 int64
	for i, m := range []int64{0, int64(n) / 4, int64(n) / 2, int64(n), 2 * int64(n), 4 * int64(n)} {
		var adv pram.Adversary = adversary.None{}
		if m > 0 {
			r := adversary.NewRandom(0.4, 0.9, 17)
			r.MaxEvents = m
			r.Points = []pram.FailPoint{pram.FailBeforeReads, pram.FailAfterReads}
			adv = r
		}
		got, err := s.runWA(ctx, pram.Config{N: n, P: p}, writeall.NewV(), adv)
		if err != nil {
			t.fail(fmt.Sprintf("M=%d", m), err)
			continue
		}
		if i == 0 {
			s0 = got.S()
		}
		ratio := "-"
		if got.FSize() > 0 {
			ratio = f2(float64(got.S()-s0) / (float64(got.FSize()) * log2(n)))
		}
		t.Rows = append(t.Rows, []string{
			itoa(m), itoa(got.FSize()), itoa(got.S()), itoa(got.S() - s0), ratio,
		})
	}
	t.Notes = append(t.Notes,
		"(S-S0)/(|F| log N) stays bounded: the marginal cost of an event is O(log N),",
		"the M log N term of Theorem 4.3.")
	return []Table{*t}
}

// E6XWorstCase reproduces Theorem 4.8: the post-order adversary forces
// algorithm X to super-linear work approaching N^{log 3}.
func E6XWorstCase(ctx context.Context, s Sweep) []Table {
	sizes := []int{16, 32, 64, 128, 256}
	if s.Scale == Full {
		sizes = []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}
	}
	t := &Table{
		ID:     "E6",
		Title:  "algorithm X under the post-order adversary (P = N)",
		Claim:  "Theorem 4.8: some pattern forces S = Omega(N^{log 3}) ~ N^1.585 (X's upper bound: N^{log 3 + eps}, Lemma 4.6)",
		Header: []string{"N", "S", "S(2N)/S(N)", "S/N^1.585", "S(failure-free)"},
	}
	type point struct {
		got, ff pram.Metrics
		err     error
	}
	points := Points(s, len(sizes), func(i int) point {
		n := sizes[i]
		algX := writeall.NewX()
		got, err := s.runWA(ctx, pram.Config{N: n, P: n}, algX, writeall.NewPostOrder(algX.Layout(n, n)))
		if err != nil {
			return point{err: err}
		}
		ff, err := s.runWA(ctx, pram.Config{N: n, P: n}, writeall.NewX(), adversary.None{})
		return point{got: got, ff: ff, err: err}
	})
	var xs, ys, ffys []float64
	var prev int64
	for i, pt := range points {
		n, got, ff := sizes[i], pt.got, pt.ff
		if pt.err != nil {
			t.fail(fmt.Sprintf("N=%d", n), pt.err)
			continue
		}
		ratio := "-"
		if prev > 0 {
			ratio = f2(float64(got.S()) / float64(prev))
		}
		prev = got.S()
		t.Rows = append(t.Rows, []string{
			itoa(int64(n)), itoa(got.S()), ratio,
			f2(float64(got.S()) / math.Pow(float64(n), math.Log2(3))),
			itoa(ff.S()),
		})
		xs = append(xs, float64(n))
		ys = append(ys, float64(got.S()))
		ffys = append(ffys, float64(ff.S()))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("fitted exponent under post-order = %.3f (failure-free exponent = %.3f);",
			Slope(xs, ys), Slope(xs, ffys)),
		"the per-doubling ratio S(2N)/S(N) approaches 3, the signature of the",
		fmt.Sprintf("S(N) = 3 S(N/2) recurrence behind the N^{log 3} = N^%.3f bound (Lemma 4.6).", math.Log2(3)))
	t.Notes = append(t.Notes, PlotLogLog("work growth", []Series{
		{Label: "post-order", Mark: '*', Xs: xs, Ys: ys},
		{Label: "failure-free", Mark: 'o', Xs: xs, Ys: ffys},
	}, 48, 10)...)
	return []Table{*t}
}

// E7XProcessorSweep reproduces Theorem 4.7: X's completed work grows like
// N * P^{log 1.5 + eps} in the processor count.
func E7XProcessorSweep(ctx context.Context, s Sweep) []Table {
	n := 256
	if s.Scale == Full {
		n = 1024
	}
	t := &Table{
		ID:     "E7",
		Title:  fmt.Sprintf("algorithm X work vs processor count (N=%d, post-order adversary)", n),
		Claim:  "Theorem 4.7: S = O(N * P^{log 1.5 + eps}), log 1.5 ~ 0.585",
		Header: []string{"P", "S", "S/N", "S/(N*P^0.585)"},
	}
	var ps []int
	for p := 4; p <= n; p *= 4 {
		ps = append(ps, p)
	}
	points := Points(s, len(ps), func(i int) outcome {
		p := ps[i]
		algX := writeall.NewX()
		got, err := s.runWA(ctx, pram.Config{N: n, P: p}, algX, writeall.NewPostOrder(algX.Layout(n, p)))
		return outcome{got, err}
	})
	var xs, ys []float64
	for i, pt := range points {
		p := ps[i]
		if pt.err != nil {
			t.fail(fmt.Sprintf("P=%d", p), pt.err)
			continue
		}
		got := pt.m
		t.Rows = append(t.Rows, []string{
			itoa(int64(p)), itoa(got.S()),
			f2(float64(got.S()) / float64(n)),
			f2(float64(got.S()) / (float64(n) * math.Pow(float64(p), 0.585))),
		})
		xs = append(xs, float64(p))
		ys = append(ys, float64(got.S()))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("fitted exponent of S vs P = %.3f; the bound's exponent is 0.585.", Slope(xs, ys)))
	return []Table{*t}
}

// E8Combined reproduces Theorem 4.9: interleaving V and X yields the
// minimum of their bounds (at twice the cost) and guarantees termination
// where V alone stalls.
func E8Combined(ctx context.Context, s Sweep) []Table {
	n := 256
	if s.Scale == Full {
		n = 512
	}
	t := &Table{
		ID:     "E8",
		Title:  fmt.Sprintf("V vs X vs combined V+X across adversaries (N=P=%d)", n),
		Claim:  "Theorem 4.9: S = O(min{N + P log^2 N + M log N, N * P^0.6}); termination guaranteed",
		Header: []string{"adversary", "alg", "S", "finished"},
	}
	advs := []func() pram.Adversary{
		func() pram.Adversary { return adversary.None{} },
		func() pram.Adversary { return adversary.NewHalving() },
		func() pram.Adversary { return &adversary.Thrashing{Rotate: true} },
		func() pram.Adversary {
			r := adversary.NewRandom(0.3, 0.8, 23)
			r.MaxEvents = int64(8 * n)
			return r
		},
	}
	algs := []func() pram.Algorithm{
		func() pram.Algorithm { return writeall.NewV() },
		func() pram.Algorithm { return writeall.NewX() },
		func() pram.Algorithm { return writeall.NewCombined() },
	}
	// Bound the ticks so that V's non-termination under the rotating
	// thrasher renders as a row instead of hanging. The budget is ample
	// for every terminating combination at these sizes.
	maxTicks := 100 * n
	for _, mkAdv := range advs {
		for _, mkAlg := range algs {
			alg, adv := mkAlg(), mkAdv()
			got, finished, err := s.runWACapped(ctx, pram.Config{N: n, P: n, MaxTicks: maxTicks}, alg, adv)
			if err != nil {
				t.fail(fmt.Sprintf("%s vs %s", alg.Name(), adv.Name()), err)
				continue
			}
			sCol := itoa(got.S())
			fCol := "yes"
			if !finished {
				sCol = ">" + sCol
				fCol = "NO (stalls)"
			}
			t.Rows = append(t.Rows, []string{adv.Name(), alg.Name(), sCol, fCol})
		}
	}
	t.Notes = append(t.Notes,
		"V stalls under the rotating thrasher (no processor survives a whole iteration,",
		"Section 4.1); X and V+X always finish, and V+X tracks the better of the two",
		"within a factor of about 2 - the Theorem 4.9 construction.")
	return []Table{*t}
}

// E13XFailStop measures the Section 5 open problem: X's work under
// fail-stop errors without restarts, against the conjectured
// O(N log N log log N).
func E13XFailStop(ctx context.Context, s Sweep) []Table {
	sizes := []int{64, 128, 256, 512}
	if s.Scale == Full {
		sizes = []int{256, 512, 1024, 2048, 4096}
	}
	t := &Table{
		ID:     "E13",
		Title:  "algorithm X under fail-stop failures without restarts (P = N)",
		Claim:  "Section 5 conjecture: S = O(N log N log log N) without restarts",
		Header: []string{"N", "S", "S/(N log N)", "S/(N log N log log N)"},
	}
	points := Points(s, len(sizes), func(i int) outcome {
		n := sizes[i]
		adv := adversary.NewHalving()
		adv.NoRestarts = true
		got, err := s.runWA(ctx, pram.Config{N: n, P: n}, writeall.NewX(), adv)
		return outcome{got, err}
	})
	var xs, ys []float64
	for i, pt := range points {
		n := sizes[i]
		if pt.err != nil {
			t.fail(fmt.Sprintf("N=%d", n), pt.err)
			continue
		}
		got := pt.m
		lln := math.Log2(log2(n))
		t.Rows = append(t.Rows, []string{
			itoa(int64(n)), itoa(got.S()),
			f2(float64(got.S()) / (float64(n) * log2(n))),
			f2(float64(got.S()) / (float64(n) * log2(n) * lln)),
		})
		xs = append(xs, float64(n))
		ys = append(ys, float64(got.S()))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("fitted exponent = %.3f, far below the restartable N^{log 3}: restarts,",
			Slope(xs, ys)),
		"not failures, are what makes X expensive - matching the paper's observation that",
		"X \"appears to have a very good performance in the fail-stop (without restart)\" model.")
	t.Notes = append(t.Notes, PlotLogLog("X without restarts", []Series{
		{Label: "halving-failstop", Mark: '*', Xs: xs, Ys: ys},
	}, 48, 8)...)
	return []Table{*t}
}

// E14XAblation compares the Remark 5 local optimizations of X.
func E14XAblation(ctx context.Context, s Sweep) []Table {
	n := 128
	if s.Scale == Full {
		n = 512
	}
	// P < N so that Remark 5(i)'s even spacing actually differs from the
	// packed initial placement.
	p := n / 4
	t := &Table{
		ID:     "E14",
		Title:  fmt.Sprintf("Remark 5 ablation: X variants (N=%d, P=%d)", n, p),
		Claim:  "Remark 5: even spacing and progress counts are local optimizations; the worst case does not benefit",
		Header: []string{"adversary", "X", "X+spacing", "X+counts"},
	}
	variants := []func() pram.Algorithm{
		func() pram.Algorithm { return writeall.NewX() },
		func() pram.Algorithm { return writeall.NewXWithOptions(writeall.XOptions{EvenSpacing: true}) },
		func() pram.Algorithm { return writeall.NewXWithOptions(writeall.XOptions{CountProgress: true}) },
	}
	advs := []func(lay writeall.TreeLayout) pram.Adversary{
		func(writeall.TreeLayout) pram.Adversary { return adversary.None{} },
		func(writeall.TreeLayout) pram.Adversary { return adversary.NewHalving() },
		func(lay writeall.TreeLayout) pram.Adversary { return writeall.NewPostOrder(lay) },
		func(writeall.TreeLayout) pram.Adversary { return adversary.NewRandom(0.2, 0.6, 29) },
	}
	lay := writeall.NewX().Layout(n, p)
	for _, mkAdv := range advs {
		row := []string{mkAdv(lay).Name()}
		for _, mkAlg := range variants {
			alg := mkAlg()
			got, err := s.runWA(ctx, pram.Config{N: n, P: p}, alg, mkAdv(lay))
			if err != nil {
				t.fail(fmt.Sprintf("%s vs %s", alg.Name(), mkAdv(lay).Name()), err)
				row = append(row, "ERR")
				continue
			}
			row = append(row, itoa(got.S()))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"the variants help on benign patterns but not against the worst-case adversaries,",
		"matching Remark 5's \"our worst case analysis does not benefit from these modifications\".")
	return []Table{*t}
}
