package main

import (
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/fabric"
)

// TestWorkerRunsToCompletion drives the real binary entry point
// against an HTTP coordinator holding one experiment task: pramw must
// execute it, commit the result, and exit 0 when the coordinator
// reports the Do-All complete.
func TestWorkerRunsToCompletion(t *testing.T) {
	tasks, err := fabric.Decompose(engine.SweepSpec{Run: []string{"E4"}})
	if err != nil {
		t.Fatal(err)
	}
	task := tasks[0]
	coord, err := fabric.NewCoordinator([]fabric.Task{task},
		filepath.Join(t.TempDir(), "ledger.jsonl"), fabric.Options{CodeVersion: "test"})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	if err := run([]string{"-coordinator", ts.URL, "-id", "test-worker", "-poll", "10ms", "-quiet"}); err != nil {
		t.Fatalf("pramw run: %v", err)
	}
	s := coord.Stats()
	if s.Done != 1 || s.Commits != 1 {
		t.Fatalf("worker must commit the task, got %+v", s)
	}
	raw, ok := coord.Result(task.Key)
	if !ok {
		t.Fatal("no committed result")
	}
	var tables []bench.Table
	if err := json.Unmarshal(raw, &tables); err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 || tables[0].ID != "E4" || len(tables[0].Rows) == 0 || len(tables[0].Errors) != 0 {
		t.Fatalf("unexpected E4 result: %+v", tables)
	}
}
