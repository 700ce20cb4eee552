package advlab

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/pram"
)

// newAlgorithm builds a registry algorithm the way the lab's matches do.
func newAlgorithm(name string, seed int64) (pram.Algorithm, bool, error) {
	return engine.NewAlgorithm(name, seed)
}

func TestLabSpecJSONRoundTrip(t *testing.T) {
	spec := LabSpec{
		N: 64, P: 4, MaxTicks: 1 << 12,
		Algorithms:  []string{"X", "trivial"},
		Seed:        7,
		Strategies:  BuiltinStrategies(4)[:1],
		SearchIters: 3,
		JournalPath: "lab.jsonl",
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back LabSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Errorf("round trip changed the spec:\n  in  %+v\n  out %+v", spec, back)
	}
}

func TestLabSpecValidateRejections(t *testing.T) {
	bad := []LabSpec{
		{N: 0},
		{N: 16, P: -1},
		{N: 16, MaxTicks: -1},
		{N: 16, SearchIters: -1},
		{N: 16, Algorithms: []string{"no-such-algorithm"}},
		{N: 16, Strategies: []Strategy{{Name: "empty"}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d (%+v) validated; want rejection", i, s)
		}
	}
}

// TestExecuteLabSmoke runs a small tournament plus search end to end:
// the bracket covers every entrant, the frontier tables follow bracket
// order, and the search produces a replayable winner per algorithm.
func TestExecuteLabSmoke(t *testing.T) {
	spec := LabSpec{
		N: 64, P: 4, MaxTicks: 1 << 13,
		Algorithms:  []string{"trivial"},
		Seed:        1,
		SearchIters: 2,
		JournalPath: filepath.Join(t.TempDir(), "journal.jsonl"),
	}
	res, err := ExecuteLab(context.Background(), spec)
	if err != nil {
		t.Fatalf("ExecuteLab: %v", err)
	}
	wantEntrants := len(HandWritten(64, 4, 1)) + len(BuiltinStrategies(4))
	if len(res.Matches) != wantEntrants {
		t.Errorf("got %d matches, want %d", len(res.Matches), wantEntrants)
	}
	if len(res.Frontiers) != 1 {
		t.Fatalf("got %d frontier tables, want 1", len(res.Frontiers))
	}
	if len(res.Searches) != 1 || res.Searches[0].Algorithm != "trivial" {
		t.Fatalf("searches = %+v, want one result for trivial", res.Searches)
	}
	if res.Searches[0].BestSigma <= 0 {
		t.Errorf("search best σ = %v, want positive", res.Searches[0].BestSigma)
	}
	if err := res.Searches[0].Best.Validate(); err != nil {
		t.Errorf("search winner is not a valid replay spec: %v", err)
	}
}
