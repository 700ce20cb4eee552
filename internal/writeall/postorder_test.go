package writeall_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/pram"
	"repro/internal/writeall"
)

// TestPostOrderWorkPinned pins the post-order adversary's exact S and
// event counts to the values its full-scan definition produces (the
// P = N rows of X are E6's table).
func TestPostOrderWorkPinned(t *testing.T) {
	cases := []struct {
		alg                string
		n, p               int
		s, fails, restarts int
	}{
		{"X", 16, 16, 450, 40, 40},
		{"X", 32, 32, 1573, 121, 121},
		{"X", 64, 64, 5262, 364, 364},
		{"X", 128, 128, 17065, 1093, 1093},
		{"X", 256, 256, 54138, 3280, 3280},
		{"X", 100, 100, 11516, 716, 716},
		{"X", 256, 64, 25080, 1456, 1456},
		{"combined", 64, 64, 2127, 129, 69},
		{"combined", 128, 32, 2279, 101, 85},
		{"combined", 256, 256, 12561, 619, 367},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/n=%d/p=%d", c.alg, c.n, c.p), func(t *testing.T) {
			var alg pram.Algorithm = writeall.NewX()
			if c.alg == "combined" {
				alg = writeall.NewCombined()
			}
			adv := writeall.NewPostOrder(writeall.NewX().Layout(c.n, c.p))
			got := run(t, pram.Config{N: c.n, P: c.p}, alg, adv)
			if got.S() != int64(c.s) || got.Failures != int64(c.fails) || got.Restarts != int64(c.restarts) {
				t.Errorf("S = %d, failures/restarts = %d/%d; want %d, %d/%d",
					got.S(), got.Failures, got.Restarts, c.s, c.fails, c.restarts)
			}
		})
	}
}

// scanChecked runs PostOrder's indexed Decide and checks each decision
// against the full scan over the same view.
type scanChecked struct {
	*writeall.PostOrder
	t        *testing.T
	calls    int
	acted    int // calls whose decision was not empty
	fails    []pram.Failure
	restarts []int
}

func (c *scanChecked) Decide(v *pram.View) pram.Decision {
	dec := c.PostOrder.Decide(v)
	c.fails = append(c.fails[:0], dec.Failures...)
	c.restarts = append(c.restarts[:0], dec.Restarts...)
	want := c.DecideByScan(v)
	if !slices.Equal(c.fails, want.Failures) || !slices.Equal(c.restarts, want.Restarts) {
		c.t.Fatalf("tick %d: indexed decision failures %v restarts %v; the scan decides failures %v restarts %v",
			v.Tick, c.fails, c.restarts, want.Failures, want.Restarts)
	}
	c.calls++
	if len(c.fails)+len(c.restarts) > 0 {
		c.acted++
	}
	return pram.Decision{Failures: c.fails, Restarts: c.restarts}
}

// layered lists its parts' decisions, in part order, on the ticks where
// on holds (every tick when on is nil) and decides nothing on the
// others. The machine applies the first failure listed for a PID and
// ignores a restart of a processor that is not dead, so the parts act
// as one adversary.
type layered struct {
	parts    []pram.Adversary
	on       func(tick int) bool
	fails    []pram.Failure
	restarts []int
}

func (l *layered) Name() string { return "layered" }

func (l *layered) Decide(v *pram.View) pram.Decision {
	l.fails, l.restarts = l.fails[:0], l.restarts[:0]
	if l.on == nil || l.on(v.Tick) {
		for _, p := range l.parts {
			dec := p.Decide(v)
			l.fails = append(l.fails, dec.Failures...)
			l.restarts = append(l.restarts, dec.Restarts...)
		}
	}
	return pram.Decision{Failures: l.fails, Restarts: l.restarts}
}

// TestPostOrderIndexMatchesScan checks every decision of the indexed
// post-order adversary against the full scan, alone and layered with a
// random adversary that kills and restarts processors it did not choose
// (on either side), or behind a window or periodic gaps that skip its
// Decide calls. W at P = N writes the tree cells' addresses with its
// own data, so the index must follow arbitrary writes.
func TestPostOrderIndexMatchesScan(t *testing.T) {
	algs := []struct {
		name string
		new  func() pram.Algorithm
		pEqN bool // runs only at P = N
	}{
		{"X", func() pram.Algorithm { return writeall.NewX() }, false},
		{"combined", func() pram.Algorithm { return writeall.NewCombined() }, false},
		{"ACC", func() pram.Algorithm { return writeall.NewACC(5) }, false},
		{"W", func() pram.Algorithm { return writeall.NewW() }, true},
	}
	wrappers := []struct {
		name string
		wrap func(po pram.Adversary, n int, seed int64) pram.Adversary
	}{
		{"plain", func(po pram.Adversary, _ int, _ int64) pram.Adversary { return po }},
		{"composite", func(po pram.Adversary, _ int, seed int64) pram.Adversary {
			return &layered{parts: []pram.Adversary{po, adversary.NewRandom(0.05, 0.3, seed)}}
		}},
		{"composite-random-first", func(po pram.Adversary, _ int, seed int64) pram.Adversary {
			return &layered{parts: []pram.Adversary{adversary.NewRandom(0.1, 0.4, seed), po}}
		}},
		{"window", func(po pram.Adversary, n int, _ int64) pram.Adversary {
			return &layered{parts: []pram.Adversary{po}, on: func(t int) bool { return t >= 1 && t < 1+4*n }}
		}},
		{"gapped", func(po pram.Adversary, _ int, seed int64) pram.Adversary {
			gaps := &layered{parts: []pram.Adversary{po}, on: func(t int) bool { return (t/7)%2 == 0 }}
			return &layered{parts: []pram.Adversary{gaps, adversary.NewRandom(0.05, 0.3, seed)}}
		}},
	}
	shapes := [][2]int{{16, 16}, {64, 64}, {100, 100}, {128, 32}}
	var calls, acted int
	for _, alg := range algs {
		for _, w := range wrappers {
			for _, sh := range shapes {
				n, p := sh[0], sh[1]
				if alg.pEqN && n != p {
					continue
				}
				for seed := int64(1); seed <= 2; seed++ {
					chk := &scanChecked{PostOrder: writeall.NewPostOrder(writeall.NewX().Layout(n, p)), t: t}
					adv := w.wrap(chk, n, seed)
					m, err := pram.New(pram.Config{N: n, P: p, MaxTicks: 200 * n}, alg.new(), adv)
					if err != nil {
						t.Fatalf("%s/%s/n=%d/p=%d: %v", alg.name, w.name, n, p, err)
					}
					if _, err := m.Run(); err != nil {
						t.Fatalf("%s/%s/n=%d/p=%d seed %d: %v", alg.name, w.name, n, p, seed, err)
					}
					calls += chk.calls
					acted += chk.acted
				}
			}
		}
	}
	if acted == 0 || acted == calls {
		t.Errorf("%d of %d decisions acted; want some that act and some that do not", acted, calls)
	}
}
