package core_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/pram"
	"repro/internal/prog"
)

// executeEngine runs cp with an explicit engine and validates the output.
func executeEngine(t *testing.T, cp checkedProgram, realP int, adv pram.Adversary, engine core.Engine) pram.Metrics {
	t.Helper()
	m, err := core.NewMachineWithEngine(cp, realP, adv, pram.Config{}, engine)
	if err != nil {
		t.Fatalf("NewMachineWithEngine(%s, %v): %v", cp.Name(), engine, err)
	}
	got, err := m.Run()
	if err != nil {
		t.Fatalf("Run(%s under %s, engine %v): %v", cp.Name(), adv.Name(), engine, err)
	}
	if err := cp.Check(core.SimMemory(m.Memory(), cp)); err != nil {
		t.Errorf("engine %v under %s: %v", engine, adv.Name(), err)
	}
	return got
}

func TestBothEnginesRunAllPrograms(t *testing.T) {
	for _, engine := range []core.Engine{core.EngineVX, core.EngineX} {
		for _, cp := range programs() {
			t.Run(fmt.Sprintf("%v/%s", engine, cp.Name()), func(t *testing.T) {
				adv := adversary.NewRandom(0.1, 0.5, 61)
				executeEngine(t, cp, cp.Processors(), adv, engine)
			})
		}
	}
}

func TestEnginesUnderHeavyRestartChurn(t *testing.T) {
	// Sustained high churn across many phases: the phase-stamped
	// structures must never confuse progress between phases.
	cp := prog.OddEvenSort{N: 16, Input: []pram.Word{
		16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}}
	for _, engine := range []core.Engine{core.EngineVX, core.EngineX} {
		t.Run(engine.String(), func(t *testing.T) {
			adv := adversary.NewRandom(0.35, 0.7, 17)
			adv.Points = []pram.FailPoint{
				pram.FailBeforeReads, pram.FailAfterReads, pram.FailAfterWrite1,
			}
			got := executeEngine(t, cp, 16, adv, engine)
			if got.FSize() < 100 {
				t.Errorf("|F| = %d; churn too light to be meaningful", got.FSize())
			}
		})
	}
}

func TestVXEngineIsWorkOptimalAtSmallP(t *testing.T) {
	// The reason EngineVX exists: at P = N/log^2 N its per-element work
	// is a constant while EngineX pays an extra log P factor.
	cp := prog.PrefixSum{N: 1024}
	p := 1024 / 100 // ~N/log^2 N
	vx := executeEngine(t, cp, p, adversary.None{}, core.EngineVX)
	x := executeEngine(t, cp, p, adversary.None{}, core.EngineX)
	if vx.S() >= x.S() {
		t.Errorf("EngineVX work %d >= EngineX work %d; V's allocation must win at small P",
			vx.S(), x.S())
	}
}

func TestExecutorPhaseCountMatchesProgram(t *testing.T) {
	// A tau-step program runs exactly 2*tau phases; the machine stops as
	// soon as the phase counter passes them. Observe via the executor's
	// Done + total ticks being finite and the output correct - and the
	// phase cell itself.
	cp := prog.ReduceSum{N: 32}
	m, err := core.NewMachine(cp, 32, adversary.None{}, pram.Config{})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Cell 0 is the phase counter by layout convention.
	if got, want := m.Memory().Load(0), pram.Word(2*cp.Steps()+1); got != want {
		t.Errorf("final phase = %d, want %d (= 2*tau + 1)", got, want)
	}
}

func TestExecutorThrashingRotatingBothEngines(t *testing.T) {
	// The rotating thrasher starves plain V; inside the combined engine
	// the X slots keep the phases moving, so even EngineVX terminates.
	cp := prog.Assign{N: 32}
	for _, engine := range []core.Engine{core.EngineVX, core.EngineX} {
		t.Run(engine.String(), func(t *testing.T) {
			executeEngine(t, cp, 32, &adversary.Thrashing{Rotate: true}, engine)
		})
	}
}

func TestExecutorSingleRealProcessor(t *testing.T) {
	// P = 1 with failures: the lone processor is spared by the liveness
	// rule and must still finish every phase.
	cp := prog.PrefixSum{N: 16}
	adv := adversary.NewRandom(0.5, 1.0, 23)
	executeEngine(t, cp, 1, adv, core.EngineVX)
}

func TestExecutorEquivalenceProperty(t *testing.T) {
	// For random inputs and random failure schedules, the robust
	// execution equals the reference semantics (prog.Checker validates
	// against an independent model).
	f := func(raw []int8, seed int64, useVX bool) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 24 {
			raw = raw[:24]
		}
		input := make([]pram.Word, len(raw))
		for i, v := range raw {
			input[i] = pram.Word(v)
		}
		cp := prog.PrefixSum{N: len(input), Input: input}
		engine := core.EngineX
		if useVX {
			engine = core.EngineVX
		}
		m, err := core.NewMachineWithEngine(cp, len(input),
			adversary.NewRandom(0.3, 0.6, seed), pram.Config{}, engine)
		if err != nil {
			return false
		}
		if _, err := m.Run(); err != nil {
			return false
		}
		return cp.Check(core.SimMemory(m.Memory(), cp)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEngineString(t *testing.T) {
	tests := []struct {
		give core.Engine
		want string
	}{
		{give: core.EngineVX, want: "V+X"},
		{give: core.EngineX, want: "X"},
		{give: core.Engine(0), want: "invalid"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestExecutorZeroProcessorProgramRejected(t *testing.T) {
	if _, err := core.NewMachine(prog.Assign{N: 0}, 1, adversary.None{}, pram.Config{}); err == nil {
		t.Fatal("want error for an empty program")
	}
}

func TestExecutorSingleSimulatedProcessor(t *testing.T) {
	// N = 1: the progress tree degenerates to a single node that is both
	// root and leaf.
	for _, engine := range []core.Engine{core.EngineVX, core.EngineX} {
		t.Run(engine.String(), func(t *testing.T) {
			executeEngine(t, prog.Assign{N: 1}, 1, adversary.NewRandom(0.3, 0.9, 8), engine)
		})
	}
}

func TestExecutorTinySizes(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		for _, engine := range []core.Engine{core.EngineVX, core.EngineX} {
			executeEngine(t, prog.PrefixSum{N: n}, n, adversary.NewRandom(0.2, 0.7, int64(n)), engine)
		}
	}
}

func TestExecutorSimMemoryMethod(t *testing.T) {
	cp := prog.Assign{N: 8}
	exec := core.NewExecutor(cp)
	m, err := pram.New(pram.Config{N: 8, P: 8}, exec, adversary.None{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := cp.Check(exec.SimMemory(m.Memory())); err != nil {
		t.Fatalf("SimMemory: %v", err)
	}
	if exec.Name() == "" {
		t.Error("empty executor name")
	}
}

// TestExecutorRunsOnPlainConfig builds the executor's machine with
// pram.New from a bare Config{N, P}: the executor declares its widened
// read budget itself (pram.ReadBudgeter), so the run completes, checks
// out, and equals NewMachine's.
func TestExecutorRunsOnPlainConfig(t *testing.T) {
	pr := prog.PrefixSum{N: 64}
	adv := func() pram.Adversary { return adversary.NewRandom(0.1, 0.5, 7) }
	for _, engine := range []core.Engine{core.EngineVX, core.EngineX} {
		exec := core.NewExecutorWithEngine(pr, engine)
		m, err := pram.New(pram.Config{N: pr.Processors(), P: 16}, exec, adv())
		if err != nil {
			t.Fatalf("%s: New: %v", engine, err)
		}
		got, err := m.Run()
		if err != nil {
			t.Fatalf("%s: Run: %v", engine, err)
		}
		if err := pr.Check(exec.SimMemory(m.Memory())); err != nil {
			t.Errorf("%s: %v", engine, err)
		}
		ref, err := core.NewMachineWithEngine(pr, 16, adv(), pram.Config{}, engine)
		if err != nil {
			t.Fatalf("%s: NewMachineWithEngine: %v", engine, err)
		}
		if want, err := ref.Run(); err != nil || got != want {
			t.Errorf("%s: plain-Config run %+v, NewMachine run %+v (err %v)", engine, got, want, err)
		}
	}
}
