// Package advlab is the adversary strategy lab: a small composable
// DSL for failure/restart strategies, a tournament harness that sweeps
// strategy × algorithm and renders the empirical σ/S/S′ frontier, and a
// seeded, checkpointable random search that hunts for strategies
// pushing the paper's algorithms toward (or past) their proven work
// envelopes.
//
// The paper's bounds — S = O(N + P log² N + M log N) for algorithm V
// (Theorem 4.3), S = O(N·P^{log 1.5}) for X (Theorem 4.7), the min of
// both for V+X (Theorem 4.9) — are worst-case over *all* adversaries,
// but hand-picked patterns (thrashing, halving, post-order) only probe
// single points of that space. The lab characterizes adversaries the
// way the Do-All literature does — by budget and structure rather than
// by example — and turns the repo's validation into a search problem:
// strategies are plain data (JSON round-trippable, engine-spec style),
// compile to pram.Adversary values that honor the Snapshotter and
// Quiescence contracts, and carry enough configuration in their names
// that every bench-table row and sweep-journal key is unambiguous.
package advlab

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"repro/internal/pram"
)

// Trigger kinds.
const (
	// TriggerAlways fires on every tick.
	TriggerAlways = "always"
	// TriggerWindow fires on ticks in [From, To); To = 0 means no
	// upper bound.
	TriggerWindow = "window"
	// TriggerEvery fires on the first Duty ticks of every Period-tick
	// cycle (phase = tick mod Period < Duty).
	TriggerEvery = "every"
	// TriggerProgress fires while the fraction of set Write-All cells
	// lies in [MinFrac, MaxFrac).
	TriggerProgress = "progress"
	// TriggerStall fires once the set-cell count has not changed for
	// Stall consecutive ticks.
	TriggerStall = "stall"
)

// Target kinds.
const (
	// TargetPIDs attacks a fixed PID set.
	TargetPIDs = "pids"
	// TargetRandom attacks K PIDs drawn uniformly (without
	// replacement) from [0, P) on each firing tick, using the
	// strategy's seeded stream.
	TargetRandom = "random"
	// TargetRotate attacks K consecutive PIDs starting at
	// (tick·Step) mod P, sliding with the clock.
	TargetRotate = "rotate"
	// TargetAllButOne attacks every processor except the survivor
	// tick mod P — the thrashing pattern of Example 2.2, rotating so
	// no processor completes consecutive cycles.
	TargetAllButOne = "all-but-one"
)

// Fail-point names accepted by Rule.Point.
const (
	PointBeforeReads = "before-reads"
	PointAfterReads  = "after-reads"
	PointAfterWrite1 = "after-write-1"
)

// Trigger decides on which ticks a rule fires. Kind selects the
// variant; the other fields parameterize it and are ignored by kinds
// that do not use them.
type Trigger struct {
	Kind string `json:"kind"`
	// From and To bound TriggerWindow: ticks in [From, To), To = 0
	// unbounded.
	From int `json:"from,omitempty"`
	To   int `json:"to,omitempty"`
	// Period and Duty parameterize TriggerEvery; Duty defaults to 1.
	Period int `json:"period,omitempty"`
	Duty   int `json:"duty,omitempty"`
	// MinFrac and MaxFrac bound TriggerProgress (fractions of the N
	// Write-All cells already set); MaxFrac defaults to 1.
	MinFrac float64 `json:"min_frac,omitempty"`
	MaxFrac float64 `json:"max_frac,omitempty"`
	// Stall is TriggerStall's quiet-progress threshold in ticks.
	Stall int `json:"stall,omitempty"`
}

// Target selects which processors a firing rule attacks.
type Target struct {
	Kind string `json:"kind"`
	// PIDs is TargetPIDs's fixed set; out-of-range entries are ignored
	// at runtime (the spec may be reused across machine sizes).
	PIDs []int `json:"pids,omitempty"`
	// K sizes TargetRandom and TargetRotate; it is clamped to P.
	K int `json:"k,omitempty"`
	// Step is TargetRotate's per-tick offset stride (default 1).
	Step int `json:"step,omitempty"`
}

// Budget caps a rule's activity, characterizing the adversary by
// resource rather than by pattern (cf. the bounded-size failure
// patterns of Theorem 4.3's M-sweeps).
type Budget struct {
	// MaxEvents caps the rule's total failure+restart events
	// (0 = unlimited). An exhausted rule is quiescent forever.
	MaxEvents int64 `json:"max_events,omitempty"`
	// MaxDead caps the number of concurrently dead processors the rule
	// may create: a kill is withheld when the dead count has reached
	// the cap (0 = unlimited).
	MaxDead int `json:"max_dead,omitempty"`
}

// Rule is one composable attack: when Trigger fires, fail the alive
// processors of Target at Point, and restart the dead ones that have
// been down for RestartAfter ticks, all within Budget.
type Rule struct {
	Trigger Trigger `json:"trigger"`
	Target  Target  `json:"target"`
	// Point names the fail point for kills; "" means before-reads.
	Point string `json:"point,omitempty"`
	// RestartAfter, when positive, restarts a dead targeted processor
	// once it has been dead for at least that many ticks; 0 leaves
	// kills permanent.
	RestartAfter int `json:"restart_after,omitempty"`
	// Budget caps the rule's events and concurrent kills.
	Budget Budget `json:"budget"`
}

// Strategy is one complete adversary specification: an ordered rule
// list (earlier rules win fail-point conflicts) plus
// the seed of the strategy's private random stream. A Strategy is
// engine-spec data: it round-trips through JSON to an equal value, and
// its compiled adversary snapshots via the (seed, draws) discipline of
// internal/rng, so checkpointed runs replay bit-identically.
type Strategy struct {
	// Name labels the strategy; the compiled adversary's Name()
	// qualifies it with a digest of the whole spec, so two different
	// specs never collide in tables or journal keys.
	Name string `json:"name"`
	// Seed feeds the strategy's random stream (TargetRandom draws).
	Seed int64 `json:"seed,omitempty"`
	// Rules is the ordered attack list.
	Rules []Rule `json:"rules"`
}

// failPoint maps a Rule.Point name to the machine's fail point.
func failPoint(name string) (pram.FailPoint, error) {
	switch name {
	case "", PointBeforeReads:
		return pram.FailBeforeReads, nil
	case PointAfterReads:
		return pram.FailAfterReads, nil
	case PointAfterWrite1:
		return pram.FailAfterWrite1, nil
	default:
		return 0, fmt.Errorf("advlab: unknown fail point %q", name)
	}
}

// Validate reports the first problem that would keep the strategy from
// compiling.
func (s Strategy) Validate() error {
	if len(s.Rules) == 0 {
		return fmt.Errorf("advlab: strategy %q has no rules", s.Name)
	}
	for i, r := range s.Rules {
		if err := r.validate(); err != nil {
			return fmt.Errorf("advlab: strategy %q rule %d: %w", s.Name, i, err)
		}
	}
	return nil
}

func (r Rule) validate() error {
	t := r.Trigger
	switch t.Kind {
	case TriggerAlways:
	case TriggerWindow:
		if t.From < 0 {
			return fmt.Errorf("window from %d negative", t.From)
		}
		if t.To != 0 && t.To <= t.From {
			return fmt.Errorf("window [%d,%d) empty", t.From, t.To)
		}
	case TriggerEvery:
		if t.Period < 1 {
			return fmt.Errorf("every period %d < 1", t.Period)
		}
		if t.Duty < 0 || t.Duty > t.Period {
			return fmt.Errorf("every duty %d outside [0,%d]", t.Duty, t.Period)
		}
	case TriggerProgress:
		max := t.MaxFrac
		if max == 0 {
			max = 1
		}
		if t.MinFrac < 0 || t.MinFrac >= max || max > 1 {
			return fmt.Errorf("progress window [%v,%v) invalid", t.MinFrac, max)
		}
	case TriggerStall:
		if t.Stall < 1 {
			return fmt.Errorf("stall threshold %d < 1", t.Stall)
		}
	default:
		return fmt.Errorf("unknown trigger kind %q", t.Kind)
	}

	g := r.Target
	switch g.Kind {
	case TargetPIDs:
		if len(g.PIDs) == 0 {
			return fmt.Errorf("pids target is empty")
		}
	case TargetRandom, TargetRotate:
		if g.K < 1 {
			return fmt.Errorf("%s target k %d < 1", g.Kind, g.K)
		}
		if g.Kind == TargetRotate && g.Step < 0 {
			return fmt.Errorf("rotate step %d negative", g.Step)
		}
	case TargetAllButOne:
	default:
		return fmt.Errorf("unknown target kind %q", g.Kind)
	}

	if _, err := failPoint(r.Point); err != nil {
		return err
	}
	if r.RestartAfter < 0 {
		return fmt.Errorf("restart_after %d negative", r.RestartAfter)
	}
	if r.Budget.MaxEvents < 0 || r.Budget.MaxDead < 0 {
		return fmt.Errorf("budget (%d events, %d dead) negative", r.Budget.MaxEvents, r.Budget.MaxDead)
	}
	return nil
}

// Canonical returns the strategy's canonical JSON encoding (the struct
// field order of this package, which is what the digest and journal
// keys are computed over).
func (s Strategy) Canonical() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// Strategy contains only marshalable field types.
		panic(fmt.Sprintf("advlab: marshal strategy: %v", err))
	}
	return b
}

// Digest returns a short stable digest of the whole spec (name, seed,
// rules). Two different specs get different digests, which is what
// keeps compiled names collision-free across tables and journals.
func (s Strategy) Digest() string {
	h := fnv.New32a()
	h.Write(s.Canonical())
	return fmt.Sprintf("%08x", h.Sum32())
}

// ParseStrategy decodes one strategy from JSON and validates it.
func ParseStrategy(data []byte) (Strategy, error) {
	var s Strategy
	if err := json.Unmarshal(data, &s); err != nil {
		return Strategy{}, fmt.Errorf("advlab: parse strategy: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Strategy{}, err
	}
	return s, nil
}

// ParseStrategies decodes a JSON array of strategies and validates
// each one.
func ParseStrategies(data []byte) ([]Strategy, error) {
	var list []Strategy
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, fmt.Errorf("advlab: parse strategies: %w", err)
	}
	for _, s := range list {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	return list, nil
}
