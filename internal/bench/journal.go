package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/faultinject"
)

// Journal is an append-only completion log: the fabric's ledger and the
// adversary lab's search journal. Each entry binds a key (e.g.
// "result/<cachekey>") to a recorded JSON value, one object per line,
// and a reopened journal replays its entries last-wins, so work
// interrupted mid-way resumes with only the unrecorded remainder.
//
// Writes are synced to disk before Put returns, so an entry is either
// fully durable or absent; a torn final line (the process died mid-
// write) is detected on open and truncated away.
type Journal struct {
	f       *faultinject.File
	entries map[string]json.RawMessage
}

// journalEntry is one line of the journal file.
type journalEntry struct {
	Key string          `json:"key"`
	Val json.RawMessage `json:"val"`
}

// OpenJournalScope opens (creating if absent) the journal at path and
// loads every complete entry. A torn or corrupt line ends the replay:
// it and everything after it are discarded and the file truncated to
// the last good entry. The faultinject scope names the journal's
// failpoints (<scope>.open, <scope>.write, <scope>.sync), so journals
// serving different roles (fabric ledger, search journal) fail
// independently.
func OpenJournalScope(path, scope string) (*Journal, error) {
	f, err := faultinject.OpenFile(faultinject.Active(), scope, path,
		os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("bench: open journal: %w", err)
	}
	j := &Journal{f: f, entries: make(map[string]json.RawMessage)}

	var good int64
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF && len(line) == 0 {
			break
		}
		var e journalEntry
		if err != nil || json.Unmarshal(line, &e) != nil || e.Key == "" {
			// Torn or corrupt tail: drop it and everything after.
			break
		}
		good += int64(len(line))
		j.entries[e.Key] = e.Val
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("bench: truncate journal: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("bench: seek journal: %w", err)
	}
	return j, nil
}

// Get returns the recorded value for key, unmarshaled into out, and
// whether the key was present.
func (j *Journal) Get(key string, out any) (bool, error) {
	raw, ok := j.entries[key]
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return false, fmt.Errorf("bench: journal entry %q: %w", key, err)
	}
	return true, nil
}

// Has reports whether key has a recorded value.
func (j *Journal) Has(key string) bool {
	_, ok := j.entries[key]
	return ok
}

// Put records val under key and syncs it to disk before returning.
func (j *Journal) Put(key string, val any) error {
	raw, err := json.Marshal(val)
	if err != nil {
		return fmt.Errorf("bench: journal entry %q: %w", key, err)
	}
	line, err := json.Marshal(journalEntry{Key: key, Val: raw})
	if err != nil {
		return fmt.Errorf("bench: journal entry %q: %w", key, err)
	}
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("bench: journal write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("bench: journal sync: %w", err)
	}
	j.entries[key] = raw
	return nil
}

// Len returns the number of recorded entries.
func (j *Journal) Len() int { return len(j.entries) }

// Close closes the underlying file.
func (j *Journal) Close() error { return j.f.Close() }
