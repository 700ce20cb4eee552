package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestFlagGridMapsToValidSpecs sweeps the CLI's flag surface and
// requires every accepted combination to become a RunSpec that
// validates and survives spec -> JSON -> spec unchanged. The CLI and
// the daemon share the spec type, so this is the contract that any run
// expressible at the command line is also expressible as a job
// submission. The one pairing Validate rejects is the post-order
// adversary against an algorithm without X's progress tree, which must
// fail with engine.ErrPostOrderAlgorithm.
func TestFlagGridMapsToValidSpecs(t *testing.T) {
	extras := [][]string{
		nil,
		{"-p", "16", "-seed", "9", "-ticks", "500", "-events", "100"},
		{"-csv", "out.csv"},
		{"-trace", "t.jsonl", "-trace-ticks", "-trace-sample", "8"},
		{"-snapshot", "run.snap", "-snapshot-every", "64", "-record", "pat.json"},
		{"-replay", "pat.json"},
		{"-restore", "run.snap"},
		{"-packed", "-batch", "64"},
		{"-packed", "-batch", "4096", "-snapshot", "run.snap", "-snapshot-every", "128"},
	}
	for _, alg := range engine.Algorithms() {
		for _, adv := range engine.Adversaries() {
			for i, extra := range extras {
				args := append([]string{"-alg", alg, "-adv", adv, "-n", "128", "-fail", "0.25", "-restart", "0.75"}, extra...)
				t.Run(fmt.Sprintf("%s/%s/extra%d", alg, adv, i), func(t *testing.T) {
					spec, _, err := parseSpec(args)
					if err != nil {
						t.Fatalf("parseSpec(%v): %v", args, err)
					}
					err = spec.Validate()
					if adv == "postorder" && spec.ReplayPath == "" && alg != "X" && alg != "combined" && alg != "ACC" {
						// Post-order reads X's tree, which only X, combined and ACC have.
						if !errors.Is(err, engine.ErrPostOrderAlgorithm) {
							t.Fatalf("spec from %v: Validate() = %v, want %v", args, err, engine.ErrPostOrderAlgorithm)
						}
						return
					}
					if err != nil {
						t.Fatalf("spec from %v does not validate: %v\nspec: %+v", args, err, spec)
					}
					data, err := json.Marshal(spec)
					if err != nil {
						t.Fatalf("marshal: %v", err)
					}
					var back engine.RunSpec
					if err := json.Unmarshal(data, &back); err != nil {
						t.Fatalf("unmarshal %s: %v", data, err)
					}
					if !reflect.DeepEqual(spec, back) {
						t.Fatalf("round trip changed the spec:\n before %+v\n after  %+v", spec, back)
					}
				})
			}
		}
	}
}

// TestCSVRejectsBatch pins the one flag pair the spec refuses together:
// -csv writes a row per tick, which a quiet window of -batch cannot
// supply, so the pair fails with an error naming both instead of
// silently stepping every tick.
func TestCSVRejectsBatch(t *testing.T) {
	out := filepath.Join(t.TempDir(), "profile.csv")
	err := run(context.Background(), []string{"-alg", "trivial", "-n", "1024", "-p", "64", "-packed", "-batch", "4096", "-csv", out})
	if err == nil || !strings.Contains(err.Error(), "csv") || !strings.Contains(err.Error(), "batch") {
		t.Fatalf("run with -csv and -batch 4096: err = %v, want an error naming csv and batch", err)
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("rejected run left a CSV file behind (stat err %v)", err)
	}
}

// TestParseSpecRejectsFlagShapedErrors keeps the CLI's own pre-checks:
// these are rejected before the spec layer ever sees them.
func TestParseSpecRejectsFlagShapedErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-snapshot", "s.snap", "-snapshot-every", "0"},
		{"-trace-sample", "0"},
		{"-not-a-flag"},
		{"-parallel", "4"}, // removed: there is one tick path
	} {
		if _, _, err := parseSpec(args); err == nil {
			t.Errorf("parseSpec(%v) accepted invalid flags", args)
		}
	}
}
