package main

import (
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestRunAllPrograms runs every registered program under every adversary
// a simulation accepts; -n sizes the programs and -k the matrix product.
func TestRunAllPrograms(t *testing.T) {
	for _, p := range engine.Programs() {
		t.Run(p, func(t *testing.T) {
			for _, adv := range engine.SimAdversaries() {
				args := []string{"-prog", p, "-n", "16", "-k", "3", "-adv", adv, "-fail", "0.1", "-dump"}
				if err := run(args); err != nil {
					t.Fatalf("run %v: %v", args, err)
				}
			}
		})
	}
}

func TestRunBothEngines(t *testing.T) {
	for _, eng := range []string{"vx", "x"} {
		if err := run([]string{"-prog", "assign", "-n", "16", "-engine", eng}); err != nil {
			t.Fatalf("engine %s: %v", eng, err)
		}
	}
}

func TestRunRejectsUnknownProgram(t *testing.T) {
	if err := run([]string{"-prog", "nope"}); err == nil || !strings.Contains(err.Error(), "unknown program") {
		t.Errorf("err = %v, want unknown program", err)
	}
}

func TestRunRejectsUnknownAdversary(t *testing.T) {
	if err := run([]string{"-adv", "nope"}); err == nil || !strings.Contains(err.Error(), "unknown adversary") {
		t.Errorf("err = %v, want unknown adversary", err)
	}
}

func TestRunClampsProcessorCount(t *testing.T) {
	// P > N is clamped to N rather than erroring.
	if err := run([]string{"-prog", "assign", "-n", "8", "-p", "64"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunPerStepOutput(t *testing.T) {
	if err := run([]string{"-prog", "reduce-sum", "-n", "16", "-adv", "random", "-steps"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}
