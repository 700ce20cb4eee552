package advlab

import (
	"context"
	"fmt"

	"repro/internal/bench"
	"repro/internal/engine"
)

// LabSpec describes one adversary-strategy-lab invocation: a tournament
// sweeping strategies × algorithms, optionally followed by a random
// strategy search per algorithm. Like the engine's specs it is plain data
// — every field round-trips through encoding/json — so a lab run can be
// submitted over HTTP or persisted in a job directory.
type LabSpec struct {
	// N and P shape the Write-All instance; MaxTicks bounds each match
	// (0 = the machine default).
	N        int `json:"n"`
	P        int `json:"p,omitempty"`
	MaxTicks int `json:"max_ticks,omitempty"`
	// Algorithms selects the bracket (engine registry names); empty
	// means the default bracket (see Tournament).
	Algorithms []string `json:"algorithms,omitempty"`
	// Seed feeds seed-taking algorithms, the random baseline, and the
	// strategy search.
	Seed int64 `json:"seed,omitempty"`
	// Strategies holds extra DSL strategies entered alongside the
	// hand-written grid and the built-in portfolio.
	Strategies []Strategy `json:"strategies,omitempty"`
	// SearchIters, when positive, runs the strategy search for that
	// many iterations per bracket algorithm after the tournament.
	SearchIters int `json:"search_iters,omitempty"`
	// JournalPath journals search iterations there (resume replays
	// finished iterations); one file serves every algorithm, keyed by
	// algorithm and iteration.
	JournalPath string `json:"journal,omitempty"`
}

// Validate reports the first problem that would keep the spec from
// executing.
func (s LabSpec) Validate() error {
	if s.N <= 0 {
		return fmt.Errorf("lab spec: n must be positive, got %d", s.N)
	}
	if s.P < 0 {
		return fmt.Errorf("lab spec: p must be non-negative, got %d", s.P)
	}
	if s.MaxTicks < 0 {
		return fmt.Errorf("lab spec: max ticks must be non-negative, got %d", s.MaxTicks)
	}
	if s.SearchIters < 0 {
		return fmt.Errorf("lab spec: search iters must be non-negative, got %d", s.SearchIters)
	}
	for _, name := range s.Algorithms {
		if _, _, err := engine.NewAlgorithm(name, s.Seed); err != nil {
			return fmt.Errorf("lab spec: %w", err)
		}
	}
	for _, st := range s.Strategies {
		if err := st.Validate(); err != nil {
			return fmt.Errorf("lab spec: %w", err)
		}
	}
	return nil
}

// LabResult is the outcome of one lab invocation.
type LabResult struct {
	// Matches holds every tournament match in bracket order; Frontiers
	// the per-algorithm σ frontier tables rendered from them.
	Matches   []MatchResult `json:"matches"`
	Frontiers []bench.Table `json:"frontiers"`
	// Searches holds one search result per bracket algorithm when
	// SearchIters is positive, in bracket order.
	Searches []SearchResult `json:"searches,omitempty"`
}

// ExecuteLab validates spec and runs the tournament, then (when
// SearchIters is positive) the per-algorithm strategy search.
func ExecuteLab(ctx context.Context, spec LabSpec) (LabResult, error) {
	var res LabResult
	if err := spec.Validate(); err != nil {
		return res, err
	}
	p := spec.P
	if p == 0 {
		p = spec.N
	}
	entrants := defaultEntrants(spec.N, p, spec.Seed)
	for _, s := range spec.Strategies {
		entrants = append(entrants, StrategyEntrant(s))
	}
	tour := Tournament{
		N: spec.N, P: p, MaxTicks: spec.MaxTicks,
		Algorithms: bracket(spec.Algorithms), Seed: spec.Seed, Entrants: entrants,
	}
	matches, err := tour.Run(ctx)
	if err != nil {
		return res, err
	}
	res.Matches = matches
	res.Frontiers = FrontierTables(matches)
	if spec.SearchIters <= 0 {
		return res, nil
	}
	for _, alg := range tour.Algorithms {
		sr, err := Search(ctx, SearchSpec{
			Algorithm: alg, N: spec.N, P: p, MaxTicks: spec.MaxTicks,
			Seed: spec.Seed, Iters: spec.SearchIters, JournalPath: spec.JournalPath,
		})
		if err != nil {
			return res, err
		}
		res.Searches = append(res.Searches, sr)
	}
	return res, nil
}
