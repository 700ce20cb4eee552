package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSelectsExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps are slow")
	}
	if err := run(context.Background(), []string{"-run", "E4,E5"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	err := run(context.Background(), []string{"-run", "E99"})
	if err == nil || !strings.Contains(err.Error(), "no experiments matched") {
		t.Errorf("err = %v, want no-match error", err)
	}
}

func TestRunAcceptsLowercaseIDs(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps are slow")
	}
	if err := run(context.Background(), []string{"-run", "e13"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// captureRun runs the CLI with stdout redirected and returns its output.
func captureRun(t *testing.T, args ...string) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	os.Stdout = w
	var buf bytes.Buffer
	done := make(chan struct{})
	go func() {
		io.Copy(&buf, r)
		close(done)
	}()
	runErr := run(context.Background(), args)
	os.Stdout = old
	w.Close()
	<-done
	if runErr != nil {
		t.Fatalf("run(%v): %v", args, runErr)
	}
	return buf.String()
}

// TestRunResumesInterruptedSweep simulates an interrupted sweep: the
// first invocation journals only E4, the resumed invocation must replay
// E4 from the journal (not re-run it) and run only E13, and the combined
// output must match an uninterrupted sweep table for table.
func TestRunResumesInterruptedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps are slow")
	}
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.jsonl")

	// Markdown output omits the wall-clock lines, so uninterrupted and
	// resumed sweeps are comparable byte for byte.
	want := captureRun(t, "-run", "E4,E13", "-format", "markdown")

	captureRun(t, "-run", "E4", "-format", "markdown", "-checkpoint-dir", dir)
	firstHalf, err := os.ReadFile(journal)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	if lines := strings.Count(string(firstHalf), "\n"); lines != 1 {
		t.Fatalf("journal has %d entries after interrupted sweep, want 1", lines)
	}

	got := captureRun(t, "-run", "E4,E13", "-format", "markdown", "-checkpoint-dir", dir, "-resume")
	if got != want {
		t.Errorf("resumed sweep output diverges from uninterrupted sweep:\nwant:\n%s\ngot:\n%s", want, got)
	}
	resumedJournal, err := os.ReadFile(journal)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	if lines := strings.Count(string(resumedJournal), "\n"); lines != 2 {
		t.Errorf("journal has %d entries after resume, want 2", lines)
	}
	if !strings.HasPrefix(string(resumedJournal), string(firstHalf)) {
		t.Error("resume rewrote the already-journaled entry")
	}
}

func TestRunResumeRequiresCheckpointDir(t *testing.T) {
	err := run(context.Background(), []string{"-resume", "-run", "E4"})
	if err == nil || !strings.Contains(err.Error(), "-checkpoint-dir") {
		t.Errorf("err = %v, want -checkpoint-dir requirement", err)
	}
}

// TestRunFabricRejectsDroppedSettings checks that -fabric refuses the
// flags its tasks would drop, before any experiment runs.
func TestRunFabricRejectsDroppedSettings(t *testing.T) {
	for _, flags := range [][]string{
		{"-deadline", "1s"},
		{"-checkpoint-dir", "d"},
	} {
		state := filepath.Join(t.TempDir(), "fabric")
		args := append([]string{"-run", "E1", "-fabric", "1", "-fabric-state", state}, flags...)
		if err := run(context.Background(), args); err == nil {
			t.Errorf("run(%v) succeeded; want the fabric to reject %s", args, flags[0])
		}
		if _, err := os.Stat(state); !os.IsNotExist(err) {
			t.Errorf("run(%v) created the fabric state dir before rejecting %s", args, flags[0])
		}
	}
}

func TestRunWithDebugServerAndProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps are slow")
	}
	// E1 is the fastest experiment; this exercises the full
	// observability path: bench + pram metrics registered, debug server
	// on an ephemeral localhost port, progress line, experiment counter.
	err := run(context.Background(), []string{
		"-run", "E1", "-debug-addr", ":0", "-progress", "10ms",
	})
	if err != nil {
		t.Fatalf("run with -debug-addr/-progress: %v", err)
	}
}

func TestRunRejectsUnusableDebugAddr(t *testing.T) {
	err := run(context.Background(), []string{"-run", "E1", "-debug-addr", "127.0.0.1:notaport"})
	if err == nil {
		t.Fatal("want error for an unusable -debug-addr")
	}
}
