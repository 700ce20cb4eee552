package advlab

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/pram"
	"repro/internal/rng"
)

// SearchSpec describes one random strategy search: a mutate/score loop
// hunting the adversary that maximizes an algorithm's measured overhead
// σ = S/(N+|F|). The loop is deterministic in Seed: candidate i is a
// pure function of (Seed, i, best-so-far), and best-so-far is a pure
// function of the candidates' scores, so a journaled search resumes to
// the identical trajectory — replayed iterations are served from the
// journal and only the unfinished tail re-runs.
type SearchSpec struct {
	// Algorithm names the Write-All algorithm under attack.
	Algorithm string `json:"algorithm"`
	// N and P shape the instance; MaxTicks bounds each scoring run.
	N        int `json:"n"`
	P        int `json:"p"`
	MaxTicks int `json:"max_ticks,omitempty"`
	// Seed drives candidate generation (and seed-taking algorithms).
	Seed int64 `json:"seed"`
	// Iters is the number of candidates scored. The built-in portfolio
	// is scored first (iterations 0..len-1); mutants of the best-so-far
	// follow.
	Iters int `json:"iters"`
	// JournalPath, when set, records every scored iteration for resume.
	JournalPath string `json:"journal,omitempty"`
}

// Validate reports the first problem that would keep the search from
// running.
func (s SearchSpec) Validate() error {
	if _, _, err := engine.NewAlgorithm(s.Algorithm, s.Seed); err != nil {
		return fmt.Errorf("advlab: search: %w", err)
	}
	if s.N <= 0 || s.P <= 0 {
		return fmt.Errorf("advlab: search needs positive N and P, got %d, %d", s.N, s.P)
	}
	if s.Iters < 1 {
		return fmt.Errorf("advlab: search needs at least 1 iteration, got %d", s.Iters)
	}
	return nil
}

// iterRecord is one journaled iteration: the candidate and its score.
type iterRecord struct {
	Strategy Strategy     `json:"strategy"`
	Sigma    float64      `json:"sigma"`
	Metrics  pram.Metrics `json:"metrics"`
	Err      string       `json:"err,omitempty"`
}

// SearchResult reports the worst strategy a search found. Best is the
// replay spec: it round-trips through JSON, recompiles to an adversary
// with the same digest-qualified name, and — because compiled
// strategies follow the (seed, draws) stream discipline — re-running it
// reproduces BestMetrics bit-identically.
type SearchResult struct {
	Algorithm   string       `json:"algorithm"`
	Best        Strategy     `json:"best"`
	BestSigma   float64      `json:"best_sigma"`
	BestMetrics pram.Metrics `json:"best_metrics"`
	// Iters counts scored candidates; Replayed the subset served from
	// the journal; Improved the iterations that raised the best σ.
	Iters    int `json:"iters"`
	Replayed int `json:"replayed"`
	Improved int `json:"improved"`
}

// Search runs the mutate/score loop. With JournalPath set, finished
// iterations are durable before the next candidate is generated, so a
// search killed mid-loop resumes from its journal bit-identically. A
// canceled ctx returns the best found so far with ctx's error.
func Search(ctx context.Context, spec SearchSpec) (SearchResult, error) {
	if err := spec.Validate(); err != nil {
		return SearchResult{}, err
	}
	var journal *bench.Journal
	if spec.JournalPath != "" {
		var err error
		journal, err = bench.OpenJournalScope(spec.JournalPath, "advlab")
		if err != nil {
			return SearchResult{}, err
		}
		defer journal.Close()
	}

	res := SearchResult{Algorithm: spec.Algorithm, BestSigma: -1}
	pool := BuiltinStrategies(spec.P)
	for i := 0; i < spec.Iters; i++ {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("advlab: search canceled after %d iterations: %w", res.Iters, err)
		}
		var cand Strategy
		if i < len(pool) {
			cand = pool[i]
		} else {
			cand = mutate(res.Best, spec.P, newRand(spec.Seed, i), i)
		}
		rec, replayed, err := score(ctx, spec, journal, i, cand)
		if err != nil {
			return res, err
		}
		obsIter(replayed)
		res.Iters++
		if replayed {
			res.Replayed++
		}
		if rec.Err == "" && rec.Sigma > res.BestSigma {
			res.Best, res.BestSigma, res.BestMetrics = rec.Strategy, rec.Sigma, rec.Metrics
			res.Improved++
			obsImproved(rec.Sigma)
		}
	}
	if res.BestSigma < 0 {
		return res, fmt.Errorf("advlab: search scored no candidate successfully")
	}
	return res, nil
}

// score evaluates one candidate, serving it from the journal when the
// same (iteration, spec-digest) was already recorded. A run error is
// journaled too — a crashing candidate must not re-run on resume, or
// the trajectory would stall at the same iteration forever.
func score(ctx context.Context, spec SearchSpec, journal *bench.Journal, i int, cand Strategy) (iterRecord, bool, error) {
	key := fmt.Sprintf("lab/%s/iter=%d/%s", spec.Algorithm, i, cand.Digest())
	if journal != nil {
		var rec iterRecord
		if ok, err := journal.Get(key, &rec); err != nil {
			return iterRecord{}, false, err
		} else if ok {
			return rec, true, nil
		}
	}
	rec := iterRecord{Strategy: cand}
	var err error
	rec.Metrics, err = safeRun(ctx, spec.N, spec.P, spec.MaxTicks, spec.Algorithm, spec.Seed, StrategyEntrant(cand))
	obsMatch(err)
	if err != nil {
		if ctx.Err() != nil {
			// Don't journal a cancellation as the candidate's score.
			return iterRecord{}, false, fmt.Errorf("advlab: search canceled: %w", ctx.Err())
		}
		rec.Err = err.Error()
		rec.Metrics = pram.Metrics{}
	}
	rec.Sigma = rec.Metrics.Overhead()
	if journal != nil {
		if err := journal.Put(key, rec); err != nil {
			return iterRecord{}, false, err
		}
	}
	return rec, false, nil
}

// newRand derives iteration i's private stream from the search seed via
// splitmix64, so each iteration's mutation draws are independent of how
// many draws earlier iterations made.
func newRand(seed int64, i int) *rand.Rand {
	z := uint64(seed) + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return rand.New(rng.NewCounting(int64(z)))
}

// mutate derives candidate i from the incumbent: one of copy-and-tweak
// a rule, add a rule, drop a rule, or reseed the strategy's stream. The
// result is always valid (the generators only produce in-range values).
func mutate(best Strategy, p int, r *rand.Rand, i int) Strategy {
	m := best
	m.Name = fmt.Sprintf("gen%d", i)
	m.Rules = append([]Rule(nil), best.Rules...)
	switch op := r.Intn(10); {
	case op < 5: // tweak one rule in place
		if len(m.Rules) > 0 {
			k := r.Intn(len(m.Rules))
			m.Rules[k] = tweakRule(m.Rules[k], p, r)
		} else {
			m.Rules = []Rule{randomRule(p, r)}
		}
	case op < 7: // add a rule
		if len(m.Rules) < 4 {
			m.Rules = append(m.Rules, randomRule(p, r))
		} else {
			k := r.Intn(len(m.Rules))
			m.Rules[k] = randomRule(p, r)
		}
	case op < 8: // drop a rule
		if len(m.Rules) > 1 {
			k := r.Intn(len(m.Rules))
			m.Rules = append(m.Rules[:k], m.Rules[k+1:]...)
		} else if len(m.Rules) == 1 {
			m.Rules[0] = tweakRule(m.Rules[0], p, r)
		} else {
			m.Rules = []Rule{randomRule(p, r)}
		}
	default: // reseed the strategy's random stream
		m.Seed = int64(r.Uint64() >> 1)
		if len(m.Rules) == 0 {
			m.Rules = []Rule{randomRule(p, r)}
		}
	}
	return m
}

// tweakRule perturbs one dimension of a rule.
func tweakRule(rule Rule, p int, r *rand.Rand) Rule {
	switch r.Intn(5) {
	case 0:
		rule.Trigger = randomTrigger(r)
	case 1:
		rule.Target = randomTarget(p, r)
	case 2:
		rule.Point = []string{PointBeforeReads, PointAfterReads, PointAfterWrite1}[r.Intn(3)]
	case 3:
		rule.RestartAfter = r.Intn(6) // 0 = permanent kill
	default:
		rule.Budget = randomBudget(p, r)
	}
	return rule
}

// randomRule draws a fresh rule uniformly over the DSL's surface.
func randomRule(p int, r *rand.Rand) Rule {
	return Rule{
		Trigger:      randomTrigger(r),
		Target:       randomTarget(p, r),
		Point:        []string{PointBeforeReads, PointAfterReads, PointAfterWrite1}[r.Intn(3)],
		RestartAfter: r.Intn(6),
		Budget:       randomBudget(p, r),
	}
}

func randomTrigger(r *rand.Rand) Trigger {
	switch r.Intn(5) {
	case 0:
		return Trigger{Kind: TriggerAlways}
	case 1:
		from := r.Intn(16)
		t := Trigger{Kind: TriggerWindow, From: from}
		if r.Intn(2) == 0 {
			t.To = from + 1 + r.Intn(32)
		}
		return t
	case 2:
		period := 1 + r.Intn(16)
		return Trigger{Kind: TriggerEvery, Period: period, Duty: 1 + r.Intn(period)}
	case 3:
		// Bounds drawn in tenths so MaxFrac lands exactly on 1.0 at the
		// top instead of drifting past it in float arithmetic.
		lo := r.Intn(8)
		hi := lo + 1 + r.Intn(10-lo)
		return Trigger{Kind: TriggerProgress, MinFrac: float64(lo) / 10, MaxFrac: float64(hi) / 10}
	default:
		return Trigger{Kind: TriggerStall, Stall: 1 + r.Intn(8)}
	}
}

func randomTarget(p int, r *rand.Rand) Target {
	switch r.Intn(4) {
	case 0:
		k := 1 + r.Intn(max(1, p-1))
		pids := make([]int, 0, k)
		for len(pids) < k {
			pids = append(pids, r.Intn(p))
		}
		return Target{Kind: TargetPIDs, PIDs: pids}
	case 1:
		return Target{Kind: TargetRandom, K: 1 + r.Intn(p)}
	case 2:
		return Target{Kind: TargetRotate, K: 1 + r.Intn(p), Step: r.Intn(4)}
	default:
		return Target{Kind: TargetAllButOne}
	}
}

func randomBudget(p int, r *rand.Rand) Budget {
	var b Budget
	if r.Intn(2) == 0 {
		b.MaxEvents = int64(1 + r.Intn(8*p))
	}
	if r.Intn(2) == 0 {
		b.MaxDead = 1 + r.Intn(p)
	}
	return b
}
