package core_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/pram"
	"repro/internal/prog"
)

// The tests in this file use deterministic scheduled failure patterns to
// hit the executor's most delicate write-ordering invariants.

// TestScratchValueLandsBeforeStamp: a FailAfterWrite1 during an EXECUTE
// leaf must never expose a stamped scratch address without its value
// (the executor writes scrV before scrA for exactly this reason). We
// bombard every tick of a run with FailAfterWrite1 on alternating
// processors and check the final output.
func TestScratchValueLandsBeforeStamp(t *testing.T) {
	cp := prog.PrefixSum{N: 16, Input: []pram.Word{
		2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5, 9, 0, 4, 5}}
	var pattern []adversary.Event
	for tick := 0; tick < 400; tick++ {
		pattern = append(pattern,
			adversary.Event{Tick: tick, PID: tick % 16, Kind: adversary.Fail, Point: pram.FailAfterWrite1},
			adversary.Event{Tick: tick + 1, PID: tick % 16, Kind: adversary.Restart},
		)
	}
	m, err := core.NewMachine(cp, 16, adversary.NewScheduled(pattern), pram.Config{})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	got, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Failures == 0 {
		t.Fatal("pattern never fired")
	}
	if err := cp.Check(core.SimMemory(m.Memory(), cp)); err != nil {
		t.Fatalf("torn-cycle run corrupted output: %v", err)
	}
}

// TestCommitAppliesBeforeDoneMark: in a COMMIT leaf the simulated-memory
// write must commit before the done mark; a FailAfterWrite1 between them
// leaves the leaf unmarked, forcing an idempotent redo rather than a lost
// update. The alternating-kill schedule above exercises EXECUTE cycles;
// this one targets odd ticks (the X engine slots) of an EngineX run so
// both phases see mid-cycle kills.
func TestCommitAppliesBeforeDoneMark(t *testing.T) {
	cp := prog.ListRank{N: 8}
	var pattern []adversary.Event
	for tick := 1; tick < 600; tick += 2 {
		pid := (tick / 2) % 8
		pattern = append(pattern,
			adversary.Event{Tick: tick, PID: pid, Kind: adversary.Fail, Point: pram.FailAfterWrite1},
			adversary.Event{Tick: tick + 1, PID: pid, Kind: adversary.Restart},
		)
	}
	m, err := core.NewMachineWithEngine(cp, 8, adversary.NewScheduled(pattern),
		pram.Config{}, core.EngineX)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := cp.Check(core.SimMemory(m.Memory(), cp)); err != nil {
		t.Fatalf("mid-commit kills corrupted output: %v", err)
	}
}

// TestKillEveryPhaseBoundary: fail the processor that is about to advance
// the phase counter, every time, before its writes land. Another
// processor must take over the advance; the run must neither skip nor
// repeat phases.
func TestKillEveryPhaseBoundary(t *testing.T) {
	cp := prog.ReduceSum{N: 16}
	killer := &phaseBoundaryKiller{}
	m, err := core.NewMachine(cp, 16, killer, pram.Config{})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if killer.kills == 0 {
		t.Fatal("killer never fired; test is vacuous")
	}
	if err := cp.Check(core.SimMemory(m.Memory(), cp)); err != nil {
		t.Fatalf("phase-boundary kills corrupted output: %v", err)
	}
}

// phaseBoundaryKiller fails every processor that intends to write the
// phase cell (layout address 0) this tick, and restarts everyone else.
type phaseBoundaryKiller struct {
	kills int
}

func (k *phaseBoundaryKiller) Name() string { return "phase-boundary-killer" }

func (k *phaseBoundaryKiller) Decide(v *pram.View) pram.Decision {
	var dec pram.Decision
	for pid, in := range v.Intents {
		if in == nil {
			if v.States.At(pid) == pram.Dead {
				dec.Restarts = append(dec.Restarts, pid)
			}
			continue
		}
		for _, w := range in.Writes {
			if w.Addr == 0 { // the phase counter cell
				dec.Failures = append(dec.Failures, pram.Failure{PID: pid, Point: pram.FailAfterReads})
				k.kills++
				break
			}
		}
	}
	return dec
}
