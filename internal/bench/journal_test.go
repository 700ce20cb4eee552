package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournalScope(path, "journal")
	if err != nil {
		t.Fatalf("OpenJournalScope: %v", err)
	}
	tables := []Table{{ID: "E4", Title: "t", Header: []string{"a"}, Rows: [][]string{{"1"}}}}
	if err := j.Put("E4/scale=1", tables); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := j.Put("E5/scale=1", []Table{{ID: "E5"}}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	j.Close()

	// Reopen: both entries must be back, contents intact.
	j2, err := OpenJournalScope(path, "journal")
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if j2.Len() != 2 {
		t.Fatalf("Len = %d, want 2", j2.Len())
	}
	if !j2.Has("E4/scale=1") || j2.Has("E6/scale=1") {
		t.Errorf("Has: wrong membership")
	}
	var got []Table
	if ok, err := j2.Get("E4/scale=1", &got); err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, tables) {
		t.Errorf("Get = %+v, want %+v", got, tables)
	}
}

// TestJournalDiscardsTornTail simulates a crash mid-write: a trailing
// partial line must be dropped on reopen (and truncated from the file)
// while every complete entry survives.
func TestJournalDiscardsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournalScope(path, "journal")
	if err != nil {
		t.Fatalf("OpenJournalScope: %v", err)
	}
	if err := j.Put("done", "ok"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	j.Close()

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open for append: %v", err)
	}
	if _, err := f.WriteString(`{"key":"torn","val":`); err != nil {
		t.Fatalf("append torn line: %v", err)
	}
	f.Close()

	j2, err := OpenJournalScope(path, "journal")
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if j2.Has("torn") {
		t.Error("torn entry survived")
	}
	if !j2.Has("done") {
		t.Error("complete entry lost")
	}
	// New writes after recovery must parse cleanly on the next open.
	if err := j2.Put("after", 1); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
	j2.Close()
	j3, err := OpenJournalScope(path, "journal")
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer j3.Close()
	if !j3.Has("done") || !j3.Has("after") || j3.Len() != 2 {
		t.Errorf("recovered journal has %d entries", j3.Len())
	}
}

// FuzzJournalReplay feeds arbitrary bytes to the journal's replay, the
// one reader of the fabric ledger after a crash. No input panics; the
// file is cut to its longest prefix of complete entries, whose values
// replay last-wins; reopening changes neither the entries nor the size;
// and a Put after recovery survives the next reopen.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// The model: complete lines decode, in order, until the first
		// torn or corrupt one.
		want := make(map[string]json.RawMessage)
		var good int
		for rest := data; ; {
			i := bytes.IndexByte(rest, '\n')
			if i < 0 {
				break
			}
			var e journalEntry
			if json.Unmarshal(rest[:i+1], &e) != nil || e.Key == "" {
				break
			}
			want[e.Key] = e.Val
			good += i + 1
			rest = rest[i+1:]
		}

		path := filepath.Join(t.TempDir(), "ledger.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		reopen := func(stage string, entries map[string]json.RawMessage, size int) *Journal {
			t.Helper()
			j, err := OpenJournalScope(path, "journal")
			if err != nil {
				t.Fatalf("%s: open: %v", stage, err)
			}
			if !reflect.DeepEqual(j.entries, entries) {
				t.Fatalf("%s: replayed %q, want %q", stage, j.entries, entries)
			}
			if got, err := os.ReadFile(path); err != nil || len(got) != size || !bytes.Equal(got[:good], data[:good]) {
				t.Fatalf("%s: file is %d bytes (%v), want the %d-byte prefix of complete entries", stage, len(got), err, size)
			}
			return j
		}
		reopen("first open", want, good).Close()
		j := reopen("reopen", want, good)
		line, _ := json.Marshal(journalEntry{Key: "fuzz/after", Val: json.RawMessage("1")})
		if err := j.Put("fuzz/after", 1); err != nil {
			t.Fatalf("Put after recovery: %v", err)
		}
		j.Close()
		want["fuzz/after"] = json.RawMessage("1")
		reopen("after Put", want, good+len(line)+1).Close()
	})
}
