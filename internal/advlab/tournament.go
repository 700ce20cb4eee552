package advlab

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/pram"
)

// Entrant is one adversary entered in a tournament: a stable name plus
// a constructor, because adversaries are stateful and every match needs
// a fresh instance.
type Entrant struct {
	Name string
	New  func() (pram.Adversary, error)
}

// StrategyEntrant enters a DSL strategy: each match compiles a fresh
// adversary from the spec, so matches never share stream positions or
// kill ledgers.
func StrategyEntrant(s Strategy) Entrant {
	name := fmt.Sprintf("lab:%s#%s", s.Name, s.Digest())
	return Entrant{
		Name: name,
		New: func() (pram.Adversary, error) {
			c, err := s.Compile()
			return c, err
		},
	}
}

// HandWritten is the repo's hand-written adversary grid for an n×p
// machine, one entrant per engine registry adversary, constructed fresh
// per match: the baseline every searched strategy is measured against.
// The random adversary fails with probability 0.1 and restarts with 0.8.
func HandWritten(n, p int, seed int64) []Entrant {
	var out []Entrant
	for _, name := range engine.Adversaries() {
		spec := engine.RunSpec{Adversary: name, Seed: seed, FailProb: 0.1, RestartProb: 0.8}
		out = append(out, Entrant{Name: name, New: func() (pram.Adversary, error) {
			return engine.NewAdversary(spec, n, p)
		}})
	}
	return out
}

// defaultEntrants is the hand-written grid plus the built-in strategy
// portfolio: a tournament's bracket when it names no entrants.
func defaultEntrants(n, p int, seed int64) []Entrant {
	entrants := HandWritten(n, p, seed)
	for _, s := range BuiltinStrategies(p) {
		entrants = append(entrants, StrategyEntrant(s))
	}
	return entrants
}

// BuiltinStrategies is the lab's seed portfolio: DSL renderings of the
// paper's archetypes (burst, thrash, decimate, stalk-by-stall), used as
// tournament entrants and as the search's starting population.
func BuiltinStrategies(p int) []Strategy {
	half := make([]int, 0, p/2)
	for pid := 0; pid < p/2; pid++ {
		half = append(half, pid)
	}
	if len(half) == 0 {
		half = []int{0}
	}
	return []Strategy{
		{
			Name: "burst",
			Rules: []Rule{{
				Trigger: Trigger{Kind: TriggerWindow, From: 2, To: 6},
				Target:  Target{Kind: TargetPIDs, PIDs: half},
				Point:   PointAfterReads,
			}},
		},
		{
			Name: "thrash",
			Rules: []Rule{{
				Trigger:      Trigger{Kind: TriggerAlways},
				Target:       Target{Kind: TargetAllButOne},
				RestartAfter: 1,
			}},
		},
		{
			Name: "decimate",
			Seed: 1,
			Rules: []Rule{{
				Trigger:      Trigger{Kind: TriggerEvery, Period: 8, Duty: 1},
				Target:       Target{Kind: TargetRandom, K: max(1, p/4)},
				Point:        PointAfterReads,
				RestartAfter: 4,
				Budget:       Budget{MaxEvents: int64(4 * p)},
			}},
		},
		{
			Name: "stalk",
			Rules: []Rule{{
				Trigger:      Trigger{Kind: TriggerProgress, MinFrac: 0.5},
				Target:       Target{Kind: TargetRotate, K: max(1, p/2), Step: 1},
				Point:        PointAfterReads,
				RestartAfter: 2,
				Budget:       Budget{MaxDead: max(1, p-1)},
			}},
		},
	}
}

// Tournament sweeps entrants × algorithms on one machine shape.
type Tournament struct {
	// N and P shape the Write-All instance; MaxTicks bounds each match
	// (0 = the machine default).
	N, P     int
	MaxTicks int
	// Algorithms names the Write-All algorithms entered (the engine
	// registry's names); empty means defaultBracket.
	Algorithms []string
	// Seed feeds seed-taking algorithms (ACC) and the random baseline.
	Seed int64
	// Entrants is the adversary bracket; empty means the hand-written
	// grid plus the built-in strategy portfolio.
	Entrants []Entrant
}

// MatchResult is one match's outcome.
type MatchResult struct {
	Algorithm string       `json:"algorithm"`
	Adversary string       `json:"adversary"`
	Metrics   pram.Metrics `json:"metrics"`
	Err       string       `json:"err,omitempty"`
}

// Sigma returns the match's measured overhead σ = S/(N+|F|).
func (m MatchResult) Sigma() float64 { return m.Metrics.Overhead() }

// defaultBracket is the algorithms a tournament enters when it names
// none: the paper's two algorithms and their Theorem 4.9 combination.
var defaultBracket = []string{"X", "V", "combined"}

// bracket returns algs, or defaultBracket when algs is empty.
func bracket(algs []string) []string {
	if len(algs) == 0 {
		return defaultBracket
	}
	return algs
}

// Run plays every entrant against every algorithm through the bench
// harness (pooled runners, point watchdog, obs accounting) and returns
// the results in bracket order: algorithms outer, entrants inner. A
// match that errors — tick limit, hung point — degrades to a result
// with Err set and zero metrics; a canceled ctx drains the remaining
// matches the same way.
func (t Tournament) Run(ctx context.Context) ([]MatchResult, error) {
	if t.N <= 0 || t.P <= 0 {
		return nil, fmt.Errorf("advlab: tournament needs positive N and P, got %d, %d", t.N, t.P)
	}
	entrants := t.Entrants
	if len(entrants) == 0 {
		entrants = defaultEntrants(t.N, t.P, t.Seed)
	}
	var out []MatchResult
	for _, alg := range bracket(t.Algorithms) {
		if _, _, err := engine.NewAlgorithm(alg, t.Seed); err != nil {
			return nil, fmt.Errorf("advlab: %w", err)
		}
		for _, e := range entrants {
			out = append(out, t.play(ctx, alg, e))
		}
	}
	return out, nil
}

// play runs one match.
func (t Tournament) play(ctx context.Context, algName string, e Entrant) MatchResult {
	res := MatchResult{Algorithm: algName, Adversary: e.Name}
	m, err := safeRun(ctx, t.N, t.P, t.MaxTicks, algName, t.Seed, e)
	obsMatch(err)
	if err != nil {
		res.Err = err.Error()
	} else {
		res.Metrics = m
	}
	return res
}

// safeRun plays one matchup through the bench harness, converting a
// panic into a match error. Some hand-written adversaries are built
// against one algorithm's memory layout (post-order and stalking read
// X's tree cells) and panic when bracketed against another; a
// tournament must degrade that pairing to an errored match, the way a
// sweep degrades a failed point, not crash the bracket.
func safeRun(ctx context.Context, n, p, maxTicks int, algName string, seed int64, e Entrant) (m pram.Metrics, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, err = pram.Metrics{}, fmt.Errorf("match panicked: %v", r)
		}
	}()
	alg, needsSnapshot, err := engine.NewAlgorithm(algName, seed)
	if err != nil {
		return pram.Metrics{}, err
	}
	adv, err := e.New()
	if err != nil {
		return pram.Metrics{}, err
	}
	cfg := pram.Config{N: n, P: p, MaxTicks: maxTicks, AllowSnapshot: needsSnapshot}
	return bench.Run(ctx, cfg, alg, adv)
}

// FrontierTable renders one algorithm's empirical frontier: its matches
// sorted by measured σ, worst adversary first, with the S/S′/|F| the
// ordering derives from. Errored matches fall to the bottom and are
// reported in Table.Errors, like degraded sweep points.
func FrontierTable(algorithm string, results []MatchResult) bench.Table {
	tb := bench.Table{
		ID:     "LAB",
		Title:  fmt.Sprintf("adversary frontier for %s", algorithm),
		Claim:  "σ = S/(N+|F|) per Definition 2.3; the frontier's max is the algorithm's measured overhead envelope",
		Header: []string{"adversary", "sigma", "S", "S'", "|F|", "ticks"},
	}
	var rows []MatchResult
	for _, r := range results {
		if r.Algorithm != algorithm {
			continue
		}
		if r.Err != "" {
			tb.Errors = append(tb.Errors, fmt.Sprintf("%s: %s", r.Adversary, r.Err))
			continue
		}
		rows = append(rows, r)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		si, sj := rows[i].Sigma(), rows[j].Sigma()
		if si != sj {
			return si > sj
		}
		return rows[i].Metrics.S() > rows[j].Metrics.S()
	})
	for _, r := range rows {
		m := r.Metrics
		tb.Rows = append(tb.Rows, []string{
			r.Adversary,
			fmt.Sprintf("%.3f", r.Sigma()),
			fmt.Sprintf("%d", m.S()),
			fmt.Sprintf("%d", m.SPrime()),
			fmt.Sprintf("%d", m.FSize()),
			fmt.Sprintf("%d", m.Ticks),
		})
	}
	if len(rows) > 0 {
		tb.Notes = append(tb.Notes, fmt.Sprintf("worst adversary: %s at σ=%.3f", rows[0].Adversary, rows[0].Sigma()))
	}
	return tb
}

// FrontierTables renders one frontier table per algorithm, in the
// bracket's algorithm order.
func FrontierTables(results []MatchResult) []bench.Table {
	var order []string
	seen := make(map[string]bool)
	for _, r := range results {
		if !seen[r.Algorithm] {
			seen[r.Algorithm] = true
			order = append(order, r.Algorithm)
		}
	}
	tables := make([]bench.Table, 0, len(order))
	for _, alg := range order {
		tables = append(tables, FrontierTable(alg, results))
	}
	return tables
}
