package writeall

import (
	"runtime"
	"testing"
)

// TestACCIncarnationAllocatesLittle guards the cost of an ACC restart.
// Under the restartable stalker every restart is a fresh incarnation that
// seeds its own stream and draws a few values before it is killed again,
// so an incarnation must not build a 5 KB generator register up front (as
// a stream wrapping rand.NewSource would, with identical results).
func TestACCIncarnationAllocatesLittle(t *testing.T) {
	const n, p, runs = 64, 4, 200
	a := NewACC(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		proc := a.NewProcessor(i%p, n, p).(*accProc)
		for j := 0; j < proc.lay.Levels; j++ {
			proc.rng.Intn(2)
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= 1024 {
		t.Errorf("NewProcessor + a descent's draws allocates %d B per incarnation, want < 1024", perRun)
	}
}
