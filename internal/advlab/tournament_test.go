package advlab

import (
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/pram"
)

// labN/labP/labTicks shape the lab's smoke tournaments: small enough
// for `go test -short`, big enough that the σ frontier separates the
// adversaries.
const (
	labN     = 128
	labP     = 8
	labTicks = 1 << 14
)

func TestTournamentBracketShape(t *testing.T) {
	tour := Tournament{N: labN, P: labP, MaxTicks: labTicks, Seed: 1, Algorithms: []string{"X", "trivial"}}
	results, err := tour.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantEntrants := len(HandWritten(labN, labP, 1)) + len(BuiltinStrategies(labP))
	if len(results) != 2*wantEntrants {
		t.Fatalf("got %d results, want %d", len(results), 2*wantEntrants)
	}
	seen := make(map[string]bool)
	for _, r := range results {
		key := r.Algorithm + "|" + r.Adversary
		if seen[key] {
			t.Errorf("duplicate bracket key %q", key)
		}
		seen[key] = true
		if r.Err == "" && r.Metrics.N != labN {
			t.Errorf("%s: metrics.N = %d, want %d", key, r.Metrics.N, labN)
		}
	}
	// The post-order adversary reads X's tree layout; against trivial
	// the pairing must degrade to an errored match, not a panic.
	var postorder *MatchResult
	for i := range results {
		if results[i].Algorithm == "trivial" && results[i].Adversary == "postorder" {
			postorder = &results[i]
		}
	}
	if postorder == nil || postorder.Err == "" {
		t.Errorf("trivial vs postorder should degrade to an errored match, got %+v", postorder)
	}
}

func TestTournamentRejectsBadInput(t *testing.T) {
	if _, err := (Tournament{N: 0, P: 4}).Run(context.Background()); err == nil {
		t.Error("zero N accepted")
	}
	if _, err := (Tournament{N: 16, P: 4, Algorithms: []string{"Z"}}).Run(context.Background()); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestFrontierPinnedOrdering is the lab-check smoke: one short seeded
// tournament whose frontier head must reproduce exactly. For X at this
// shape, no hand-written adversary beats the failure-free baseline on
// σ = S/(N+|F|) — kills cost X more completed cycles than they add in
// |F| — and the stalkers follow. A change anywhere in the machine, the
// adversaries, or the lab that reorders this head is a behavior change
// and must be pinned deliberately.
func TestFrontierPinnedOrdering(t *testing.T) {
	tour := Tournament{N: labN, P: labP, MaxTicks: labTicks, Seed: 1, Algorithms: []string{"X"}}
	results, err := tour.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tables := FrontierTables(results)
	if len(tables) != 1 {
		t.Fatalf("got %d tables, want 1", len(tables))
	}
	tb := tables[0]
	if len(tb.Rows) < 3 {
		t.Fatalf("frontier has %d rows, want >= 3", len(tb.Rows))
	}
	wantHead := []string{"none", "stalking-failstop", "stalking"}
	for i, want := range wantHead {
		if got := tb.Rows[i][0]; got != want {
			t.Errorf("frontier row %d = %q, want %q (full head: %v)", i, got, want,
				[]string{tb.Rows[0][0], tb.Rows[1][0], tb.Rows[2][0]})
		}
	}
	if len(tb.Notes) == 0 || !strings.Contains(tb.Notes[0], "none") {
		t.Errorf("Notes = %v, want worst-adversary note naming none", tb.Notes)
	}
}

func TestFrontierTableRoutesErrors(t *testing.T) {
	results := []MatchResult{
		{Algorithm: "X", Adversary: "a", Metrics: pram.Metrics{N: 10, Completed: 30}},
		{Algorithm: "X", Adversary: "b", Metrics: pram.Metrics{N: 10, Completed: 90}},
		{Algorithm: "X", Adversary: "c", Err: "boom"},
		{Algorithm: "V", Adversary: "a", Metrics: pram.Metrics{N: 10, Completed: 50}},
	}
	tb := FrontierTable("X", results)
	if len(tb.Rows) != 2 || tb.Rows[0][0] != "b" || tb.Rows[1][0] != "a" {
		t.Errorf("rows = %v, want b (σ=9) above a (σ=3)", tb.Rows)
	}
	if len(tb.Errors) != 1 || !strings.Contains(tb.Errors[0], "boom") {
		t.Errorf("Errors = %v, want the degraded match", tb.Errors)
	}
	if got := len(FrontierTables(results)); got != 2 {
		t.Errorf("FrontierTables rendered %d tables, want 2", got)
	}
}

// TestLabAlgorithmsMatchEngine checks that the lab brackets every
// engine registry algorithm, since it builds them through the registry,
// and rejects a name the registry does not know.
func TestLabAlgorithmsMatchEngine(t *testing.T) {
	none := HandWritten(16, 4, 1)[:1]
	tour := Tournament{N: 16, P: 4, MaxTicks: 1 << 12, Algorithms: engine.Algorithms(), Entrants: none}
	results, err := tour.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(results) != len(engine.Algorithms()) {
		t.Fatalf("got %d matches, want one per registry algorithm (%d)", len(results), len(engine.Algorithms()))
	}
	for _, r := range results {
		if r.Err != "" {
			t.Errorf("%s failed against %s: %s", r.Algorithm, r.Adversary, r.Err)
		}
	}
	tour.Algorithms = []string{"no-such-algorithm"}
	if _, err := tour.Run(context.Background()); err == nil {
		t.Error("unknown name accepted")
	}
}
