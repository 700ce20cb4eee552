package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
)

// readJSON reads one JSON file into v.
func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// TestRecoverSkipsForgedJobs: recovery trusts only a status.json the
// store could have written. A record whose ID is not its directory's
// name leads the store's paths elsewhere: with "../../outside" the
// store once ran the job under a directory beside its state dir. A
// record in an unknown state, or live with a spec Submit refuses, is no
// work the store ever accepted. Each is skipped with a log line, never
// queued, and its files are left as they were, while a valid queued job
// beside them still runs.
func TestRecoverSkipsForgedJobs(t *testing.T) {
	root := t.TempDir()
	dir, outside := filepath.Join(root, "state"), filepath.Join(root, "outside")
	if err := os.MkdirAll(outside, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := Spec{Kind: KindRun, Run: &engine.RunSpec{Algorithm: "trivial", Adversary: "none", N: 64, P: 8}}
	traced := Spec{Kind: KindRun, Run: &engine.RunSpec{Algorithm: "trivial", Adversary: "none", N: 64, P: 8, TracePath: filepath.Join(outside, "trace")}}
	forged := map[string]Job{
		"j000001": {ID: "../../outside", Spec: spec, State: StateQueued},
		"j000002": {ID: "j000002", Spec: spec, State: "paused"},
		"j000003": {ID: "j000003", Spec: traced, State: StateRunning},
	}
	status := map[string][]byte{}
	for name, job := range forged {
		if err := os.MkdirAll(filepath.Join(dir, "jobs", name), 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "jobs", name, "status.json")
		if err := writeJSONAtomic(path, job); err != nil {
			t.Fatal(err)
		}
		status[name], _ = os.ReadFile(path)
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs", "j000004"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeJSONAtomic(filepath.Join(dir, "jobs", "j000004", "status.json"), Job{ID: "j000004", Spec: spec, State: StateQueued}); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var logs []string
	s, err := Open(dir, Options{Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
		t.Logf(format, args...)
	}})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := waitTerminal(t, s, "j000004"); got.State != StateDone {
		t.Fatalf("valid queued job = %s (error %q), want done", got.State, got.Error)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}

	for _, id := range []string{"j000001", "j000002", "j000003", "../../outside"} {
		if _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get(%q) = %v, want ErrNotFound", id, err)
		}
	}
	for name, want := range status {
		entries, err := os.ReadDir(filepath.Join(dir, "jobs", name))
		if err != nil || len(entries) != 1 {
			t.Errorf("forged job %s's directory holds %d entries (%v), want its status.json alone", name, len(entries), err)
		}
		if got, _ := os.ReadFile(filepath.Join(dir, "jobs", name, "status.json")); !bytes.Equal(got, want) {
			t.Errorf("forged job %s's status.json was rewritten:\n%s", name, got)
		}
		skipped := false
		for _, line := range logs {
			skipped = skipped || strings.HasPrefix(line, "jobs: skipping unreadable job "+name+":")
		}
		if !skipped {
			t.Errorf("no skip line for forged job %s in %q", name, logs)
		}
	}
	if entries, err := os.ReadDir(outside); err != nil || len(entries) != 0 {
		t.Errorf("the store wrote %d entries (%v) outside its state dir", len(entries), err)
	}
}

// FuzzDecodeJob holds recovery's status.json decoder to its contract on
// arbitrary bytes and directory names: no input panics; every accepted
// job satisfies the three recovery rules (its ID is the directory's
// name, its state is one of the five, and a queued or running job's
// spec validates); and an accepted job survives the store's encoding
// and a second decode unchanged, as it does when recovery re-persists
// it and a later recovery reads it back. The committed corpus holds
// valid queued, running and done jobs, a truncated file, a job whose
// ID escapes its directory and one in an unknown state.
func FuzzDecodeJob(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, name string) {
		job, err := decodeJob(data, name)
		if err != nil {
			return
		}
		if job.ID != name {
			t.Fatalf("accepted job %q from directory %q", job.ID, name)
		}
		switch job.State {
		case StateQueued, StateRunning:
			if err := job.Spec.Validate(); err != nil {
				t.Fatalf("accepted a %s job whose spec fails Validate: %v", job.State, err)
			}
		case StateDone, StateFailed, StateCanceled:
		default:
			t.Fatalf("accepted unknown state %q", job.State)
		}
		enc, err := json.MarshalIndent(job, "", "  ")
		if err != nil {
			t.Fatalf("accepted job does not encode: %v", err)
		}
		again, err := decodeJob(enc, name)
		if err != nil {
			t.Fatalf("encoded job does not decode: %v\n%s", err, enc)
		}
		if enc2, _ := json.MarshalIndent(again, "", "  "); !bytes.Equal(enc2, enc) {
			t.Fatalf("round trip changed the job:\nfirst  %s\nsecond %s", enc, enc2)
		}
	})
}
