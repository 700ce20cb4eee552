package engine

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The spec types are the service's wire format: anything a CLI accepts
// must survive spec -> JSON -> spec unchanged, or a job submitted over
// HTTP would silently run something other than what was asked. These
// property tests draw specs from the full valid parameter space with a
// seeded generator and require Validate to pass and the round trip to
// be exact.

func roundTrip[T any](t *testing.T, spec T) T {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal %+v: %v", spec, err)
	}
	var back T
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("round trip changed the spec:\n before %+v\n after  %+v\n json   %s", spec, back, data)
	}
	return back
}

// pick returns a pseudo-random element, skewed toward the zero-value
// first entry so omitempty paths get exercised as often as set ones.
func pick[T any](rng *rand.Rand, vals ...T) T {
	if rng.Intn(2) == 0 {
		return vals[0]
	}
	return vals[rng.Intn(len(vals))]
}

func randomRunSpec(rng *rand.Rand) RunSpec {
	spec := RunSpec{
		Algorithm:       pick(rng, Algorithms()...),
		Adversary:       pick(rng, Adversaries()...),
		N:               1 << (3 + rng.Intn(8)),
		P:               pick(rng, 0, 1, 16, 64, 1024),
		Seed:            rng.Int63n(1 << 32),
		MaxEvents:       pick(rng, int64(0), 10, 100000),
		MaxTicks:        pick(rng, 0, 1, 4096),
		CSVPath:         pick(rng, "", "profile.csv"),
		TracePath:       pick(rng, "", "trace.jsonl"),
		TraceTicksOnly:  rng.Intn(2) == 0,
		TraceSample:     pick(rng, 0, 1, 64),
		RecordPath:      pick(rng, "", "pattern.json"),
		CheckpointPath:  pick(rng, "", "run.snap"),
		CheckpointEvery: pick(rng, 0, 1, 256),
	}
	if spec.Adversary == "random" {
		spec.FailProb = float64(rng.Intn(101)) / 100
		spec.RestartProb = float64(rng.Intn(101)) / 100
	}
	adv, _ := adversaries.find("adversary", spec.Adversary)
	if alg, _ := algorithms.find("algorithm", spec.Algorithm); adv.needsXTree && !alg.xTree {
		spec.Algorithm = "X" // post-order reads X's tree; Validate rejects other pairings
	}
	return spec
}

func TestRunSpecPropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		spec := randomRunSpec(rng)
		if err := spec.Validate(); err != nil {
			t.Fatalf("generated spec %+v does not validate: %v", spec, err)
		}
		roundTrip(t, spec)
	}
}

func randomSweepSpec(rng *rand.Rand) SweepSpec {
	return SweepSpec{
		Run:      pick(rng, nil, []string{"E1"}, []string{"E4", "E13"}, []string{"e9"}),
		Full:     rng.Intn(2) == 0,
		Parallel: pick(rng, 0, 1, 4),
		Deadline: pick(rng, 0, time.Second, 250*time.Millisecond),
	}
}

func TestSweepSpecPropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		spec := randomSweepSpec(rng)
		if err := spec.Validate(); err != nil {
			t.Fatalf("generated spec %+v does not validate: %v", spec, err)
		}
		roundTrip(t, spec)
	}
}

func randomSimSpec(rng *rand.Rand) SimSpec {
	spec := SimSpec{
		Program:   pick(rng, Programs()...),
		Adversary: pick(rng, append([]string{""}, SimAdversaries()...)...),
		Seed:      rng.Int63n(1 << 32),
		P:         pick(rng, 0, 1, 16),
		Engine:    pick(rng, "", "vx", "x"),
		PerStep:   rng.Intn(2) == 0,
	}
	if spec.Program == "matmul" {
		spec.K = 1 + rng.Intn(8)
	} else {
		spec.N = 1 << (2 + rng.Intn(7))
	}
	if spec.Adversary == "random" {
		spec.FailProb = float64(rng.Intn(101)) / 100
		spec.RestartProb = float64(rng.Intn(101)) / 100
	}
	return spec
}

func TestSimSpecPropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		spec := randomSimSpec(rng)
		if err := spec.Validate(); err != nil {
			t.Fatalf("generated spec %+v does not validate: %v", spec, err)
		}
		roundTrip(t, spec)
	}
}

func TestRunSpecValidateRejects(t *testing.T) {
	base := RunSpec{Algorithm: "X", Adversary: "none", N: 64}
	cases := []struct {
		name   string
		mutate func(*RunSpec)
		want   string
	}{
		{"unknown-algorithm", func(s *RunSpec) { s.Algorithm = "Z" }, `unknown algorithm "Z"`},
		{"unknown-adversary", func(s *RunSpec) { s.Adversary = "gremlin" }, `unknown adversary "gremlin"`},
		{"zero-n", func(s *RunSpec) { s.N = 0 }, "n must be positive"},
		{"negative-p", func(s *RunSpec) { s.P = -1 }, "p must be non-negative"},
		{"fail-prob-out-of-range", func(s *RunSpec) { s.Adversary = "random"; s.FailProb = 1.5 }, "outside [0, 1]"},
		{"restart-prob-out-of-range", func(s *RunSpec) { s.Adversary = "random"; s.RestartProb = -0.1 }, "outside [0, 1]"},
		{"negative-max-events", func(s *RunSpec) { s.MaxEvents = -1 }, "max events"},
		{"negative-max-ticks", func(s *RunSpec) { s.MaxTicks = -1 }, "max ticks"},
		{"negative-trace-sample", func(s *RunSpec) { s.TraceSample = -1 }, "trace sample"},
		{"negative-checkpoint-every", func(s *RunSpec) { s.CheckpointEvery = -1 }, "checkpoint interval"},
		{"csv-with-batch", func(s *RunSpec) { s.CSVPath = "profile.csv"; s.BatchTicks = 64 }, "csv profile needs per-tick stepping, got batch ticks 64"},
		{"postorder-without-x-tree", func(s *RunSpec) { s.Algorithm = "V"; s.Adversary = "postorder" }, "needs X's progress tree"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base
			tc.mutate(&spec)
			err := spec.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}

	// A replay run must not require a known adversary name: the recorded
	// pattern is the adversary.
	replay := base
	replay.Adversary = ""
	replay.ReplayPath = "pattern.json"
	if err := replay.Validate(); err != nil {
		t.Errorf("replay spec rejected: %v", err)
	}

	// A batch of one tick is per-tick stepping, which a CSV profile
	// allows.
	csv := base
	csv.CSVPath, csv.BatchTicks = "profile.csv", 1
	if err := csv.Validate(); err != nil {
		t.Errorf("csv spec with batch ticks 1 rejected: %v", err)
	}
}

func TestSweepSpecValidateRejects(t *testing.T) {
	if err := (SweepSpec{Deadline: -time.Second}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "deadline") {
		t.Errorf("negative deadline: Validate() = %v", err)
	}
}

func TestSimSpecValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		spec SimSpec
		want string
	}{
		{"unknown-program", SimSpec{Program: "quicksort", N: 8}, `unknown program "quicksort"`},
		{"unknown-adversary", SimSpec{Program: "assign", N: 8, Adversary: "halving"}, `unknown adversary "halving"`},
		{"unknown-engine", SimSpec{Program: "assign", N: 8, Engine: "y"}, "unknown engine"},
		{"matmul-without-k", SimSpec{Program: "matmul", N: 8}, "matmul needs k > 0"},
		{"zero-n", SimSpec{Program: "assign"}, "n must be positive"},
		{"bad-fail-prob", SimSpec{Program: "assign", N: 8, Adversary: "random", FailProb: 2}, "outside [0, 1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestSpecWireFormat pins the JSON field names: they are the daemon's
// HTTP API, so renaming a Go field must show up as a test failure, not
// as a silently incompatible wire change.
func TestSpecWireFormat(t *testing.T) {
	keysOf := func(v any) map[string]bool {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		keys := make(map[string]bool, len(m))
		for k := range m {
			keys[k] = true
		}
		return keys
	}

	run := RunSpec{
		Algorithm: "X", Adversary: "random", N: 64, P: 8, Seed: 1,
		FailProb: 0.1, RestartProb: 0.5, MaxEvents: 1, MaxTicks: 1,
		CSVPath: "a", TracePath: "b", TraceTicksOnly: true,
		TraceSample: 2, RecordPath: "c", ReplayPath: "d",
		CheckpointPath: "e", CheckpointEvery: 1, RestorePath: "f",
	}
	for _, key := range []string{
		"algorithm", "adversary", "n", "p", "seed", "fail_prob",
		"restart_prob", "max_events", "max_ticks", "csv",
		"trace", "trace_ticks", "trace_sample", "record", "replay",
		"checkpoint", "checkpoint_every", "restore",
	} {
		if !keysOf(run)[key] {
			t.Errorf("RunSpec wire format lost key %q", key)
		}
	}

	sweep := SweepSpec{Run: []string{"E1"}, Full: true, Parallel: 2, Deadline: time.Second}
	for _, key := range []string{"run", "full", "parallel", "deadline_ns"} {
		if !keysOf(sweep)[key] {
			t.Errorf("SweepSpec wire format lost key %q", key)
		}
	}

	sim := SimSpec{Program: "matmul", N: 1, K: 2, P: 3, Adversary: "random",
		Seed: 4, FailProb: 0.1, RestartProb: 0.2, Engine: "x", PerStep: true}
	for _, key := range []string{
		"program", "n", "k", "p", "adversary", "seed", "fail_prob",
		"restart_prob", "engine", "per_step",
	} {
		if !keysOf(sim)[key] {
			t.Errorf("SimSpec wire format lost key %q", key)
		}
	}
}
