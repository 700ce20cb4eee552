package writeall

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/pram"
)

// clearer is a one-processor Write-All "algorithm" over N = 2 cells that
// clears a set cell before finishing: tick 0 sets x[0], tick 1 clears
// x[0] and sets x[1], tick 2 sets x[0] again. The task is complete only
// after tick 2, so a Done that assumes a set cell stays set ends the run
// a tick early with x[0] = 0.
type clearer struct{ arrayDone }

func (clearer) Name() string                              { return "clearer" }
func (clearer) MemorySize(n, p int) int                   { return n }
func (clearer) Setup(*pram.Memory, int, int)              {}
func (clearer) NewProcessor(pid, n, p int) pram.Processor { return clearerProc{} }

type clearerProc struct{}

func (clearerProc) Cycle(ctx *pram.Ctx) pram.Status {
	switch ctx.Tick() {
	case 0:
		ctx.Write(0, 1)
	case 1:
		ctx.Write(0, 0)
		ctx.Write(1, 1)
	case 2:
		ctx.Write(0, 1)
	}
	return pram.Continue
}

// TestPolledDoneSeesClearedCell holds the polled Done to the done hint
// on a run whose memory leaves the all-set state and returns to it: the
// hinted run and the run wrapped in struct{ pram.Algorithm }, which
// hides DoneCells and so polls Done, end at the same tick with the same
// metrics and memory.
func TestPolledDoneSeesClearedCell(t *testing.T) {
	cfg := pram.Config{N: 2, P: 1, MaxTicks: 100}
	run := func(alg pram.Algorithm) (pram.Metrics, []pram.Word) {
		t.Helper()
		m, err := pram.New(cfg, alg, adversary.None{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		got, err := m.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return got, m.Memory().CopyInto(nil)
	}
	hinted, hintedMem := run(clearer{})
	polled, polledMem := run(struct{ pram.Algorithm }{clearer{}})
	if hinted.Ticks != 3 || !reflect.DeepEqual(hintedMem, []pram.Word{1, 1}) {
		t.Fatalf("hinted run ends at tick %d with memory %v, want tick 3 and [1 1]", hinted.Ticks, hintedMem)
	}
	if polled != hinted || !reflect.DeepEqual(polledMem, hintedMem) {
		t.Errorf("polled run ends with %+v and memory %v, hinted with %+v and %v",
			polled, polledMem, hinted, hintedMem)
	}
}

// TestOldCheckpointsRestore resumes checkpoints written while every
// Write-All algorithm still kept a done cursor: X's carried the cursor
// as its one algorithm word, which a restore now ignores because X is
// not a Snapshotter, and ACC's carried [cursor, spawned]. Each is
// written through the binary format, restored into a fresh machine, and
// must finish with the metrics and memory of an uninterrupted run.
func TestOldCheckpointsRestore(t *testing.T) {
	const n, p, at = 64, 16, 12
	cfg := pram.Config{N: n, P: p}
	for _, tc := range []struct {
		name string
		mk   func() pram.Algorithm
	}{
		{"X", func() pram.Algorithm { return NewX() }},
		{"ACC", func() pram.Algorithm { return NewACC(5) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mkAdv := func() pram.Adversary { return adversary.NewRandom(0.2, 0.5, 3) }
			finish := func(m *pram.Machine) (pram.Metrics, []pram.Word) {
				t.Helper()
				got, err := m.Run()
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				return got, m.Memory().CopyInto(nil)
			}
			ref, err := pram.New(cfg, tc.mk(), mkAdv())
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			want, wantMem := finish(ref)

			m, err := pram.New(cfg, tc.mk(), mkAdv())
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			for m.Tick() < at {
				if done, err := m.Step(); err != nil || done {
					t.Fatalf("Step to tick %d: done=%v err=%v", at, done, err)
				}
			}
			snap, err := m.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			// The old state put the cursor, the length of the set prefix
			// of x, before the current one: [cursor] for X, [cursor,
			// spawned] for ACC.
			cursor := pram.Word(0)
			for int(cursor) < n && m.Memory().Load(int(cursor)) != 0 {
				cursor++
			}
			snap.AlgState = append([]pram.Word{cursor}, snap.AlgState...)
			var buf bytes.Buffer
			if err := pram.WriteSnapshot(&buf, snap); err != nil {
				t.Fatalf("WriteSnapshot: %v", err)
			}
			old, err := pram.ReadSnapshot(&buf)
			if err != nil {
				t.Fatalf("ReadSnapshot: %v", err)
			}

			resumed, err := pram.New(cfg, tc.mk(), mkAdv())
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if err := resumed.RestoreSnapshot(old); err != nil {
				t.Fatalf("RestoreSnapshot of state %v: %v", old.AlgState, err)
			}
			got, gotMem := finish(resumed)
			if got != want || !reflect.DeepEqual(gotMem, wantMem) {
				t.Errorf("resumed run ends with %+v, uninterrupted with %+v (memory equal: %v)",
					got, want, reflect.DeepEqual(gotMem, wantMem))
			}
		})
	}
}
