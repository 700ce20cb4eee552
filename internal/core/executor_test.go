package core_test

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/pram"
	"repro/internal/prog"
)

type checkedProgram interface {
	core.Program
	prog.Checker
}

func programs() []checkedProgram {
	return []checkedProgram{
		prog.Assign{N: 16},
		prog.ReduceSum{N: 16},
		prog.PrefixSum{N: 32},
		prog.ListRank{N: 16},
		prog.OddEvenSort{N: 8, Input: []pram.Word{5, 3, 8, 1, 9, 2, 7, 4}},
		prog.MatMul{K: 3,
			A: []pram.Word{1, 2, 3, 4, 5, 6, 7, 8, 9},
			B: []pram.Word{9, 8, 7, 6, 5, 4, 3, 2, 1}},
		prog.Broadcast{N: 16},
		prog.MaxReduce{N: 16, Input: []pram.Word{3, 9, 1, 9, 0, 4, 7, 2, 8, 8, 5, 6, 9, 1, 0, 2}},
		prog.TreeRoots{N: 16},
	}
}

// execute runs p on realP processors under adv and checks the output.
func execute(t *testing.T, cp checkedProgram, realP int, adv pram.Adversary) pram.Metrics {
	t.Helper()
	m, err := core.NewMachine(cp, realP, adv, pram.Config{})
	if err != nil {
		t.Fatalf("NewMachine(%s): %v", cp.Name(), err)
	}
	got, err := m.Run()
	if err != nil {
		t.Fatalf("Run(%s under %s): %v", cp.Name(), adv.Name(), err)
	}
	sim := simMemory(m, cp)
	if err := cp.Check(sim); err != nil {
		t.Errorf("under %s: %v", adv.Name(), err)
	}
	return got
}

// simMemory extracts the simulated memory from a finished machine.
func simMemory(m *pram.Machine, p core.Program) []pram.Word {
	return core.SimMemory(m.Memory(), p)
}

func TestExecutorRunsProgramsFailureFree(t *testing.T) {
	for _, cp := range programs() {
		for _, realP := range []int{1, 4, cp.Processors()} {
			t.Run(fmt.Sprintf("%s/P=%d", cp.Name(), realP), func(t *testing.T) {
				got := execute(t, cp, realP, adversary.None{})
				if got.FSize() != 0 {
					t.Errorf("|F| = %d, want 0", got.FSize())
				}
			})
		}
	}
}

func TestExecutorRunsProgramsUnderRandomFailuresAndRestarts(t *testing.T) {
	for _, cp := range programs() {
		t.Run(cp.Name(), func(t *testing.T) {
			adv := adversary.NewRandom(0.15, 0.5, 21)
			adv.Points = []pram.FailPoint{
				pram.FailBeforeReads, pram.FailAfterReads, pram.FailAfterWrite1,
			}
			got := execute(t, cp, cp.Processors(), adv)
			if got.FSize() == 0 {
				t.Error("no failure events; test is vacuous")
			}
		})
	}
}

func TestExecutorRunsProgramsUnderThrashing(t *testing.T) {
	for _, cp := range programs() {
		t.Run(cp.Name(), func(t *testing.T) {
			execute(t, cp, cp.Processors(), &adversary.Thrashing{})
		})
	}
}

func TestExecutorMatchesFailureFreeSemantics(t *testing.T) {
	// Property: the robust execution under any adversary produces
	// exactly the same simulated memory as the failure-free run.
	cp := prog.PrefixSum{N: 16, Input: []pram.Word{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}}
	reference := func() []pram.Word {
		m, err := core.NewMachine(cp, cp.Processors(), adversary.None{}, pram.Config{})
		if err != nil {
			t.Fatalf("NewMachine: %v", err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return simMemory(m, cp)
	}()

	for seed := int64(0); seed < 8; seed++ {
		adv := adversary.NewRandom(0.2, 0.5, seed)
		adv.Points = []pram.FailPoint{
			pram.FailBeforeReads, pram.FailAfterReads, pram.FailAfterWrite1,
		}
		m, err := core.NewMachine(cp, cp.Processors(), adv, pram.Config{})
		if err != nil {
			t.Fatalf("NewMachine: %v", err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("Run(seed=%d): %v", seed, err)
		}
		sim := simMemory(m, cp)
		for i, want := range reference {
			if sim[i] != want {
				t.Fatalf("seed %d: sim[%d] = %d, want %d (must match failure-free run)",
					seed, i, sim[i], want)
			}
		}
	}
}

func TestExecutorRejectsTooManyProcessors(t *testing.T) {
	cp := prog.Assign{N: 4}
	if _, err := core.NewMachine(cp, 8, adversary.None{}, pram.Config{}); err == nil {
		t.Fatal("want error for P > N, got nil")
	}
}

func TestExecutorWorkOptimalRange(t *testing.T) {
	// Corollary 4.12 sanity: with P <= N/log^2 N and no failures, the
	// completed work is O(tau * N).
	cp := prog.PrefixSum{N: 256}
	p := 256 / (8 * 8) // N / log^2 N = 4
	got := execute(t, cp, p, adversary.None{})
	tau := int64(cp.Steps())
	n := int64(cp.Processors())
	// The executor spends a constant ~12 cycles per simulated element
	// (execute + commit + tree navigation); 32x leaves headroom while
	// still distinguishing linear from N log N growth at this size.
	if got.S() > 32*tau*n {
		t.Errorf("S = %d, want O(tau*N) = about %d", got.S(), 12*tau*n)
	}
}

func TestExecutorNonPowerOfTwoProcessors(t *testing.T) {
	execute(t, prog.Assign{N: 13}, 5, adversary.NewRandom(0.1, 0.5, 3))
}
