package pram

import (
	"fmt"
	"runtime/debug"
	"testing"
)

// countAlg is strideAlg's strided writer with processors that count how
// they came to be: built counts NewProcessor calls, resets counts Reset
// calls, and stale counts RestoreState calls on a processor that has run
// a cycle since it was built or reset, which the Snapshotter contract
// rules out. resettable picks whether its processors implement
// Resettable.
type countAlg struct {
	resettable           bool
	built, resets, stale int
}

func (a *countAlg) Name() string                       { return "count" }
func (a *countAlg) MemorySize(n, p int) int            { return n }
func (a *countAlg) Setup(mem *Memory, n, p int)        {}
func (a *countAlg) Done(mem MemoryView, n, p int) bool { return oneShotWriter().done(mem, n, p) }

func (a *countAlg) NewProcessor(pid, n, p int) Processor {
	a.built++
	c := &countProc{alg: a, pid: pid, fresh: true}
	if a.resettable {
		return &resettableCountProc{c}
	}
	return c
}

// countProc writes cells pid, pid+P, ... keeping its position in the
// stable counter. fresh is set while it has run no cycle since it was
// built or reset.
type countProc struct {
	alg   *countAlg
	pid   int
	fresh bool
}

func (p *countProc) Cycle(ctx *Ctx) Status {
	p.fresh = false
	k := int(ctx.Stable())
	addr := p.pid + k*ctx.P()
	if addr >= ctx.N() {
		return Halt
	}
	ctx.Write(addr, 1)
	ctx.SetStable(Word(k + 1))
	return Continue
}

func (p *countProc) SnapshotState() []Word { return nil }

func (p *countProc) RestoreState(state []Word) error {
	if !p.fresh {
		p.alg.stale++
	}
	return nil
}

type resettableCountProc struct{ *countProc }

func (p *resettableCountProc) Reset(pid, n, pp int) {
	p.alg.resets++
	p.pid, p.fresh = pid, true
}

// churn kills PIDs 1 and 2 at tick 1 and PID 0 at tick 3, and restarts
// each of them on the tick after: three restarts per run.
func churn() *funcAdversary {
	return &funcAdversary{name: "churn", f: func(v *View) Decision {
		switch v.Tick {
		case 1:
			return Decision{Failures: []Failure{{PID: 1, Point: FailAfterReads}, {PID: 2, Point: FailAfterWrite1}}}
		case 2:
			return Decision{Restarts: []int{1, 2}}
		case 3:
			return Decision{Failures: []Failure{{PID: 0, Point: FailBeforeReads}}}
		case 4:
			return Decision{Restarts: []int{0}}
		}
		return Decision{}
	}}
}

const lifeN, lifeP, lifeRestarts = 64, 8, 3

// TestProcessorLifecycle pins how the machine obtains processors, over
// fresh runs and pooled reruns: a PID's first incarnation is built by
// NewProcessor, every later one of a Resettable processor is reset in
// place, and one that is not Resettable is built again. A recycling
// path that switched off would only make runs slower, so these counts
// are what catches it. It also checks that a restore hands RestoreState
// only fresh incarnations, and that New allocates as many objects at
// P = 1024 as at P = 64.
func TestProcessorLifecycle(t *testing.T) {
	cfg := Config{N: lifeN, P: lifeP}
	run := func(t *testing.T, m *Machine) {
		t.Helper()
		got, err := m.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if got.Restarts != lifeRestarts {
			t.Fatalf("run made %d restarts, want %d", got.Restarts, lifeRestarts)
		}
	}
	check := func(t *testing.T, stage string, a *countAlg, built, resets int) {
		t.Helper()
		if a.built != built || a.resets != resets {
			t.Errorf("%s: %d NewProcessor and %d Reset calls, want %d and %d",
				stage, a.built, a.resets, built, resets)
		}
	}

	t.Run("first-run", func(t *testing.T) {
		for _, resettable := range []bool{true, false} {
			a := &countAlg{resettable: resettable}
			m, err := New(cfg, a, churn())
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			run(t, m)
			if resettable {
				check(t, "resettable", a, lifeP, lifeRestarts)
			} else {
				check(t, "not resettable", a, lifeP+lifeRestarts, 0)
			}
		}
	})

	t.Run("pooled", func(t *testing.T) {
		var r Runner
		defer r.Close()
		a := &countAlg{resettable: true}
		if _, err := r.Run(cfg, a, churn()); err != nil {
			t.Fatalf("first Run: %v", err)
		}
		a.built, a.resets = 0, 0
		m, err := r.Machine(cfg, a, churn())
		if err != nil {
			t.Fatalf("Machine: %v", err)
		}
		check(t, "same algorithm, reset", a, 0, lifeP)
		run(t, m)
		check(t, "same algorithm, run", a, 0, lifeP+lifeRestarts)

		b := &countAlg{resettable: true}
		if _, err := r.Machine(cfg, b, churn()); err != nil {
			t.Fatalf("Machine: %v", err)
		}
		check(t, "new algorithm value", b, lifeP, 0)

		c := &countAlg{}
		for i := 0; i < 2; i++ {
			c.built = 0
			if _, err := r.Machine(cfg, c, churn()); err != nil {
				t.Fatalf("Machine: %v", err)
			}
			check(t, "not resettable", c, lifeP, 0)
		}
	})

	// A snapshot restored into the machine it came from, mid-run and
	// with every processor alive, meets only processors built or reset
	// for the restore (the Snapshotter contract), and the resumed run
	// ends as an uninterrupted one does.
	t.Run("restore", func(t *testing.T) {
		for _, resettable := range []bool{true, false} {
			ref, err := New(cfg, &countAlg{resettable: resettable}, churn())
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			want, err := ref.Run()
			if err != nil {
				t.Fatalf("uninterrupted Run: %v", err)
			}

			a := &countAlg{resettable: resettable}
			m, err := New(cfg, a, churn())
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			stepTo := func(tick int) {
				for m.Tick() < tick {
					if _, err := m.Step(); err != nil {
						t.Fatalf("Step: %v", err)
					}
				}
			}
			stepTo(5)
			snap, err := m.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			stepTo(7)
			if err := m.RestoreSnapshot(snap); err != nil {
				t.Fatalf("RestoreSnapshot: %v", err)
			}
			if a.stale != 0 {
				t.Errorf("resettable=%v: RestoreState met %d processors that had run since they were built or reset",
					resettable, a.stale)
			}
			got, err := m.Run()
			if err != nil {
				t.Fatalf("resumed Run: %v", err)
			}
			if got != want {
				t.Errorf("resettable=%v: resumed run ends with %+v, want %+v", resettable, got, want)
			}
		}
	})

	// Runner.Resume restores into a machine that has run no tick since
	// Reset, which already holds a fresh incarnation for every PID, so
	// each live processor is built once: no second NewProcessor call for
	// one that is not Resettable, and no Reset for one that is.
	t.Run("resume", func(t *testing.T) {
		for _, resettable := range []bool{true, false} {
			m, err := New(cfg, &countAlg{resettable: resettable}, churn())
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			for m.Tick() < 5 {
				if _, err := m.Step(); err != nil {
					t.Fatalf("Step: %v", err)
				}
			}
			snap, err := m.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			for pid, st := range snap.States {
				if st != Alive {
					t.Fatalf("snapshot at tick 5 has pid %d %v, want every PID alive", pid, st)
				}
			}
			want, err := m.Run()
			if err != nil {
				t.Fatalf("uninterrupted Run: %v", err)
			}

			a := &countAlg{resettable: resettable}
			var r Runner
			got, err := r.Resume(cfg, a, churn(), snap)
			r.Close()
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			check(t, fmt.Sprintf("resume, resettable=%v", resettable), a, lifeP, 0)
			if a.stale != 0 {
				t.Errorf("resettable=%v: RestoreState met %d processors that had run since they were built or reset",
					resettable, a.stale)
			}
			if got != want {
				t.Errorf("resettable=%v: resumed run ends with %+v, want %+v", resettable, got, want)
			}
		}
	})

	// staticAlg's processors do not allocate, so New's own allocations
	// are all that is counted: the per-PID state is one slice of slots.
	// The collector is off while counting: after the rest of the package
	// has run, the larger machines start a collection, whose own objects
	// added one to the count per New at P = 1024.
	t.Run("allocations", func(t *testing.T) {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		allocs := func(p int) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := New(Config{N: p, P: p}, staticAlg{}, &funcAdversary{name: "none"}); err != nil {
					t.Fatalf("New: %v", err)
				}
			})
		}
		small, large := allocs(64), allocs(1024)
		if large != small {
			t.Errorf("New allocates %.0f objects at P = 1024 but %.0f at P = 64; want the same", large, small)
		}
	})
}

// staticAlg's processors are a zero-size value, so building one
// allocates nothing.
type staticAlg struct{}

type staticProc struct{}

func (staticProc) Cycle(*Ctx) Status { return Halt }

func (staticAlg) Name() string                         { return "static" }
func (staticAlg) MemorySize(n, p int) int              { return n }
func (staticAlg) Setup(*Memory, int, int)              {}
func (staticAlg) NewProcessor(pid, n, p int) Processor { return staticProc{} }
func (staticAlg) Done(MemoryView, int, int) bool       { return false }
