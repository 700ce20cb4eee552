package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/engine"
)

// TestFlagGridMapsToValidSpecs sweeps the CLI's flag surface and
// requires every accepted combination to become a SweepSpec that
// validates and survives spec -> JSON -> spec unchanged (the same spec
// type a daemon sweep job is submitted as).
func TestFlagGridMapsToValidSpecs(t *testing.T) {
	grids := [][]string{
		nil,
		{"-run", "E1"},
		{"-run", "E4,E13", "-full"},
		{"-parallel", "0", "-deadline", "2s"},
		{"-parallel", "4", "-format", "markdown"},
		{"-fabric", "2", "-fabric-state", "st"},
		{"-fabric", "1", "-fabric-fresh", "-deadline", "1ns"},
		{"-full", "-fabric", "3", "-deadline", "500ms"},
	}
	for i, args := range grids {
		t.Run(fmt.Sprintf("grid%d", i), func(t *testing.T) {
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
			var back engine.SweepSpec
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatalf("unmarshal %s: %v", data, err)
			}
			if !reflect.DeepEqual(spec, back) {
				t.Fatalf("round trip changed the spec:\n before %+v\n after  %+v", spec, back)
			}
		})
	}
}
