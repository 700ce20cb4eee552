package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/engine"
)

// TestFlagGridMapsToValidSpecs sweeps the CLI's flag surface over every
// registered program and sim adversary and requires every accepted
// combination to become a SimSpec that validates and survives spec ->
// JSON -> spec unchanged (the same spec type a daemon sim job is
// submitted as).
func TestFlagGridMapsToValidSpecs(t *testing.T) {
	extras := [][]string{
		nil,
		{"-p", "8", "-seed", "11", "-fail", "0.3", "-restart", "0.6"},
		{"-engine", "x", "-steps"},
		{"-engine", "vx", "-dump"},
		{"-engine", "weird-legacy-value"}, // historical: anything but "x" means vx
	}
	for _, prog := range engine.Programs() {
		for _, adv := range engine.SimAdversaries() {
			for i, extra := range extras {
				args := append([]string{"-prog", prog, "-adv", adv, "-n", "64", "-k", "3"}, extra...)
				t.Run(fmt.Sprintf("%s/%s/extra%d", prog, adv, i), func(t *testing.T) {
					spec, _, err := parseSpec(args)
					if err != nil {
						t.Fatalf("parseSpec(%v): %v", args, err)
					}
					if err := spec.Validate(); err != nil {
						t.Fatalf("spec from %v does not validate: %v\nspec: %+v", args, err, spec)
					}
					data, err := json.Marshal(spec)
					if err != nil {
						t.Fatalf("marshal: %v", err)
					}
					var back engine.SimSpec
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
