package bench

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pram"
)

func TestSlopeFitsExactPowerLaws(t *testing.T) {
	tests := []struct {
		give string
		exp  float64
	}{
		{give: "linear", exp: 1},
		{give: "quadratic", exp: 2},
		{give: "nlog3", exp: math.Log2(3)},
		{give: "sqrt", exp: 0.5},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			var xs, ys []float64
			for _, x := range []float64{16, 32, 64, 128, 256} {
				xs = append(xs, x)
				ys = append(ys, 3*math.Pow(x, tt.exp))
			}
			if got := Slope(xs, ys); math.Abs(got-tt.exp) > 1e-9 {
				t.Errorf("Slope = %v, want %v", got, tt.exp)
			}
		})
	}
}

func TestSlopeDegenerateInputs(t *testing.T) {
	if got := Slope(nil, nil); !math.IsNaN(got) {
		t.Errorf("Slope(nil) = %v, want NaN", got)
	}
	if got := Slope([]float64{1}, []float64{1}); !math.IsNaN(got) {
		t.Errorf("Slope(single point) = %v, want NaN", got)
	}
	if got := Slope([]float64{4, 4}, []float64{1, 2}); !math.IsNaN(got) {
		t.Errorf("Slope(vertical) = %v, want NaN", got)
	}
	if got := Slope([]float64{1, 2}, []float64{3}); !math.IsNaN(got) {
		t.Errorf("Slope(mismatched) = %v, want NaN", got)
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{
		ID:     "E0",
		Title:  "demo",
		Claim:  "claim text",
		Header: []string{"col", "value"},
		Rows:   [][]string{{"a", "1"}, {"bbbb", "22"}},
		Notes:  []string{"note one"},
	}
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"E0: demo", "claim text", "col", "bbbb", "-> note one"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryIsCompleteAndOrdered(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("len(All()) = %d, want 18", len(all))
	}
	seen := make(map[string]bool, len(all))
	for i, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %d incomplete: %+v", i, e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range []string{"E1", "E6", "E9", "E14"} {
		if !seen[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
}

// TestQuickExperimentsProduceSaneTables runs every experiment at Quick
// scale and validates table structure (headers match row widths, at least
// one note). Takes a few seconds; skipped under -short.
func TestQuickExperimentsProduceSaneTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps are slow")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			for _, tb := range e.Run(context.Background(), Sweep{Scale: Quick}) {
				if len(tb.Rows) == 0 {
					t.Error("table has no rows")
				}
				for _, msg := range tb.Errors {
					t.Errorf("degraded point: %s", msg)
				}
				for i, row := range tb.Rows {
					if len(row) != len(tb.Header) {
						t.Errorf("row %d has %d cells, header has %d", i, len(row), len(tb.Header))
					}
				}
				if len(tb.Notes) == 0 {
					t.Error("table has no interpretation notes")
				}
				if tb.Claim == "" {
					t.Error("table cites no paper claim")
				}
			}
		})
	}
}

// TestPointsRunsParallelPointsAtOnce pins that Points takes its worker
// count from the sweep: with Parallel 2 both points must be in flight at
// once to pass the barrier. Run one at a time, the first point gives up
// on the barrier after the timeout.
func TestPointsRunsParallelPointsAtOnce(t *testing.T) {
	var arrived sync.WaitGroup
	arrived.Add(2)
	barrier := make(chan struct{})
	go func() {
		arrived.Wait()
		close(barrier)
	}()
	passed := Points(Sweep{Parallel: 2}, 2, func(int) bool {
		arrived.Done()
		select {
		case <-barrier:
			return true
		case <-time.After(10 * time.Second):
			return false
		}
	})
	if !passed[0] || !passed[1] {
		t.Fatalf("points passed the barrier = %v, want both: Parallel 2 ran them one at a time", passed)
	}
}

// TestParallelSweepTablesIdentical checks that a sweep's parallelism
// never reaches its tables: quick E1, E2 and E6 render byte-identically
// at Parallel 4 and Parallel 1.
func TestParallelSweepTablesIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps are slow")
	}
	for _, e := range All() {
		if e.ID != "E1" && e.ID != "E2" && e.ID != "E6" {
			continue
		}
		render := func(parallel int) string {
			var sb strings.Builder
			for _, tb := range e.Run(context.Background(), Sweep{Scale: Quick, Parallel: parallel}) {
				tb.RenderMarkdown(&sb)
			}
			return sb.String()
		}
		if serial, parallel := render(1), render(4); parallel != serial {
			t.Errorf("%s at Parallel 4 differs from Parallel 1:\n%s\nvs\n%s", e.ID, parallel, serial)
		}
	}
}

func TestStepOverhead(t *testing.T) {
	m := pram.Metrics{N: 100, Completed: 5000, Failures: 300}
	// sigma = S / (tau*N + |F|) with tau = 2.
	want := 5000.0 / (2*100.0 + 300.0)
	if got := stepOverhead(m, 2); got != want {
		t.Errorf("stepOverhead = %v, want %v", got, want)
	}
}

func TestTableRenderMarkdown(t *testing.T) {
	tb := Table{
		ID:     "E0",
		Title:  "demo",
		Claim:  "claim text",
		Header: []string{"col", "value"},
		Rows:   [][]string{{"a", "1"}},
		Notes:  []string{"note one"},
	}
	var sb strings.Builder
	tb.RenderMarkdown(&sb)
	out := sb.String()
	for _, want := range []string{"### E0: demo", "**Paper.** claim text", "| col | value |", "| --- | --- |", "| a | 1 |", "> note one"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown table missing %q:\n%s", want, out)
		}
	}
}

func TestPlotLogLog(t *testing.T) {
	series := []Series{
		{Label: "cubic", Mark: '*', Xs: []float64{2, 4, 8, 16}, Ys: []float64{8, 64, 512, 4096}},
		{Label: "linear", Mark: 'o', Xs: []float64{2, 4, 8, 16}, Ys: []float64{2, 4, 8, 16}},
	}
	lines := PlotLogLog("demo", series, 32, 8)
	if len(lines) < 10 {
		t.Fatalf("plot too short: %d lines", len(lines))
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"demo", "*", "o", "slope 3.00", "slope 1.00"} {
		if !strings.Contains(joined, want) {
			t.Errorf("plot missing %q:\n%s", want, joined)
		}
	}
}

func TestPlotLogLogDegenerate(t *testing.T) {
	lines := PlotLogLog("empty", nil, 32, 8)
	if len(lines) != 1 || !strings.Contains(lines[0], "not enough data") {
		t.Errorf("degenerate plot = %v", lines)
	}
	neg := PlotLogLog("neg", []Series{{Mark: '*', Xs: []float64{-1, 0}, Ys: []float64{1, 2}}}, 32, 8)
	if len(neg) != 1 || !strings.Contains(neg[0], "not enough data") {
		t.Errorf("all-nonpositive plot = %v", neg)
	}
	// A single point is a flat series on both axes: it must render (on
	// padded axes), not be refused.
	one := PlotLogLog("one", []Series{{Mark: '*', Xs: []float64{4}, Ys: []float64{4}}}, 32, 8)
	if len(one) < 10 || !strings.Contains(strings.Join(one, "\n"), "*") {
		t.Errorf("single-point plot should render on padded axes, got %v", one)
	}
}

// TestPlotLogLogFlatSeries is the regression test for the degenerate-axis
// bug: a constant series (every Y equal, as a flat overhead ratio
// produces) used to be refused as "not enough data" because maxY == minY;
// it must instead render as a flat line on a ±0.5-padded axis.
func TestPlotLogLogFlatSeries(t *testing.T) {
	series := []Series{{Label: "flat", Mark: '#', Xs: []float64{2, 4, 8, 16}, Ys: []float64{8, 8, 8, 8}}}
	lines := PlotLogLog("flat", series, 32, 8)
	joined := strings.Join(lines, "\n")
	if len(lines) < 10 {
		t.Fatalf("flat series refused: %v", lines)
	}
	if !strings.Contains(joined, "#") {
		t.Errorf("flat series not drawn:\n%s", joined)
	}
	if !strings.Contains(joined, "slope 0.00") {
		t.Errorf("flat series slope not 0:\n%s", joined)
	}
	// Flat in X as well.
	vert := PlotLogLog("vert", []Series{{Label: "v", Mark: '@', Xs: []float64{4, 4, 4}, Ys: []float64{2, 4, 8}}}, 32, 8)
	if len(vert) < 10 || !strings.Contains(strings.Join(vert, "\n"), "@") {
		t.Errorf("vertical series refused: %v", vert)
	}
}

// TestSlopeSkipsNonpositivePoints is the regression test for the
// log-of-nonpositive bug: a zero or negative sample (a failed
// measurement, a zero-failure count) used to poison the whole fit with
// NaN/-Inf; such points must be skipped, with NaN only when fewer than
// two usable points remain.
func TestSlopeSkipsNonpositivePoints(t *testing.T) {
	got := Slope([]float64{0, 16, 32, 64, 128}, []float64{5, 16, 32, 64, 128})
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("Slope with zero x = %v, want 1", got)
	}
	got = Slope([]float64{16, 32, 64}, []float64{16, -3, 64})
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("Slope with negative y = %v, want 1", got)
	}
	if got := Slope([]float64{0, -1, 64}, []float64{1, 2, 64}); !math.IsNaN(got) {
		t.Errorf("Slope with one usable point = %v, want NaN", got)
	}
	if got := Slope([]float64{0, 0}, []float64{1, 2}); !math.IsNaN(got) {
		t.Errorf("Slope with no usable points = %v, want NaN", got)
	}
}
