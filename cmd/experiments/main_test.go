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

// ledgerResults reads a fabric ledger and counts its committed results.
func ledgerResults(t *testing.T, path string) (string, int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read ledger: %v", err)
	}
	return string(data), strings.Count(string(data), `{"key":"result/`)
}

// TestRunResumesInterruptedSweep simulates an interrupted sweep on the
// fabric: the first invocation commits only E4 to the ledger, the
// resumed invocation must serve E4 from the ledger (not re-run it) and
// run only E13, and the combined output must match an uninterrupted
// plain sweep byte for byte.
func TestRunResumesInterruptedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps are slow")
	}
	dir := t.TempDir()
	ledger := filepath.Join(dir, "ledger.jsonl")

	// Markdown output omits the wall-clock lines, so uninterrupted and
	// resumed sweeps are comparable byte for byte.
	want := captureRun(t, "-run", "E4,E13", "-format", "markdown")

	captureRun(t, "-run", "E4", "-format", "markdown", "-fabric", "1", "-fabric-state", dir)
	firstHalf, n := ledgerResults(t, ledger)
	if n != 1 {
		t.Fatalf("ledger has %d results after the interrupted sweep, want 1", n)
	}

	got := captureRun(t, "-run", "E4,E13", "-format", "markdown", "-fabric", "1", "-fabric-state", dir)
	if got != want {
		t.Errorf("resumed sweep output diverges from uninterrupted sweep:\nwant:\n%s\ngot:\n%s", want, got)
	}
	resumed, n := ledgerResults(t, ledger)
	if n != 2 {
		t.Errorf("ledger has %d results after the resume, want 2", n)
	}
	if !strings.HasPrefix(resumed, firstHalf) {
		t.Error("resume rewrote the already-committed entry")
	}
}

// TestRunRejectsJournalFlags: the fabric ledger is the sweep's only
// checkpoint, so -checkpoint-dir and -resume fail as unknown flags.
func TestRunRejectsJournalFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-checkpoint-dir", "x", "-run", "E4"},
		{"-resume", "-run", "E4"},
	} {
		err := run(context.Background(), args)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("run(%v) = %v, want an unknown-flag error", args, err)
		}
	}
}

// TestRunFabricRejectsDroppedSettings checks that -fabric drops no
// setting: its tasks carry -deadline, so a fabric sweep under a
// deadline no point can meet prints what the plain sweep prints.
func TestRunFabricRejectsDroppedSettings(t *testing.T) {
	want := captureRun(t, "-run", "E1", "-deadline", "1ns", "-format", "markdown")
	if !strings.Contains(want, "deadline exceeded") {
		t.Fatalf("plain sweep under a 1ns deadline degraded nothing:\n%s", want)
	}
	state := filepath.Join(t.TempDir(), "fabric")
	got := captureRun(t, "-run", "E1", "-deadline", "1ns", "-format", "markdown", "-fabric", "2", "-fabric-state", state)
	if got != want {
		t.Errorf("fabric sweep under -deadline diverges from the plain sweep:\nwant:\n%s\ngot:\n%s", want, got)
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
