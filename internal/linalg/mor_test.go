package linalg

import (
	"math"
	"testing"
)

// morTestSystem builds an SPD grid-Laplacian system (nx×ny five-point
// stencil plus ambient legs on the boundary), a positive capacitance
// diagonal and a handful of unit input columns — the same shape as an
// assembled RC thermal network.
func morTestSystem(nx, ny int) (g *CSR, caps []float64, inputs [][]float64) {
	n := nx * ny
	var entries []Coord
	diag := make([]float64, n)
	at := func(x, y int) int { return y*nx + x }
	couple := func(a, b int, w float64) {
		entries = append(entries, Coord{I: a, J: b, V: -w}, Coord{I: b, J: a, V: -w})
		diag[a] += w
		diag[b] += w
	}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := at(x, y)
			if x+1 < nx {
				couple(i, at(x+1, y), 1.0+0.1*float64(i%7))
			}
			if y+1 < ny {
				couple(i, at(x, y+1), 1.5+0.05*float64(i%5))
			}
			if x == 0 || y == 0 || x == nx-1 || y == ny-1 {
				diag[i] += 0.3 // ambient leg
			}
		}
	}
	for i, d := range diag {
		entries = append(entries, Coord{I: i, J: i, V: d})
	}
	g = NewCSR(n, entries)
	caps = make([]float64, n)
	for i := range caps {
		caps[i] = 0.5 + 0.01*float64(i%13)
	}
	for _, i := range []int{0, n / 3, n / 2, n - 1} {
		e := make([]float64, n)
		e[i] = 1
		inputs = append(inputs, e)
	}
	return g, caps, inputs
}

func denseFrom(g *CSR) *Matrix {
	a := NewMatrix(g.N, g.N)
	for i := 0; i < g.N; i++ {
		for k := g.RowPtr[i]; k < g.RowPtr[i+1]; k++ {
			a.Set(i, g.ColIdx[k], g.Values[k])
		}
	}
	return a
}

// With order ≥ n the basis spans the full space and the reduced solve must
// agree with a dense direct solve to rounding.
func TestReducedOperatorExactAtFullOrder(t *testing.T) {
	g, caps, inputs := morTestSystem(6, 6)
	n := g.N
	ro, err := NewReducedOperator(g, caps, inputs, n, 0)
	if err != nil {
		t.Fatalf("NewReducedOperator: %v", err)
	}
	if ro.Order() > n {
		t.Fatalf("order %d exceeds dimension %d", ro.Order(), n)
	}
	if ro.ProjectionError() > 1e-8 {
		t.Fatalf("full-order projection error %g, want ~0", ro.ProjectionError())
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	got, err := ro.Solve(b, nil, nil, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want, err := SolveDense(denseFrom(g), b)
	if err != nil {
		t.Fatalf("SolveDense: %v", err)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
			t.Fatalf("solution[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// Shift must agree with the dense solve of A + diag(d) at full order, and
// the shifted operator's Apply/Diag must reflect the exact shifted matrix.
func TestReducedOperatorShift(t *testing.T) {
	g, caps, inputs := morTestSystem(5, 5)
	n := g.N
	ro, err := NewReducedOperator(g, caps, inputs, n, 0)
	if err != nil {
		t.Fatalf("NewReducedOperator: %v", err)
	}
	d := make([]float64, n)
	for i, c := range caps {
		d[i] = c / 1e-3 // a backward-Euler C/dt shift
	}
	sh, err := ro.Shift(d)
	if err != nil {
		t.Fatalf("Shift: %v", err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%3)
	}
	got, err := sh.Solve(b, nil, nil, nil)
	if err != nil {
		t.Fatalf("shifted Solve: %v", err)
	}
	a := denseFrom(g)
	for i := 0; i < n; i++ {
		a.Add(i, i, d[i])
	}
	want, err := SolveDense(a, b)
	if err != nil {
		t.Fatalf("SolveDense: %v", err)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
			t.Fatalf("shifted solution[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	diag := sh.Diag()
	for i := range diag {
		wantD := g.Diagonal()[i] + d[i]
		if math.Abs(diag[i]-wantD) > 1e-12*wantD {
			t.Fatalf("shifted diag[%d] = %g, want %g", i, diag[i], wantD)
		}
	}
}

// A genuinely reduced operator (order ≪ n) must still answer the input
// columns it was built for near-exactly: the first Krylov block contains
// G⁻¹B by construction.
func TestReducedOperatorInputColumnsSurviveReduction(t *testing.T) {
	g, caps, inputs := morTestSystem(12, 12)
	ro, err := NewReducedOperator(g, caps, inputs, 40, 0)
	if err != nil {
		t.Fatalf("NewReducedOperator: %v", err)
	}
	if ro.Order() != 40 {
		t.Fatalf("order = %d, want 40", ro.Order())
	}
	if ro.ProjectionError() > 1e-8 {
		t.Fatalf("projection error %g for in-basis inputs, want ~0", ro.ProjectionError())
	}
	scratch := make([]float64, g.N)
	x := make([]float64, g.N)
	for k, b := range inputs {
		ro.Solve(b, nil, x, nil)
		if res := ro.RelativeResidual(b, x, scratch); res > 1e-8 {
			t.Fatalf("input column %d: relative residual %g", k, res)
		}
	}
}

// SolveBatch must match column-by-column Solve exactly.
func TestReducedOperatorSolveBatch(t *testing.T) {
	g, caps, inputs := morTestSystem(6, 6)
	n := g.N
	ro, err := NewReducedOperator(g, caps, inputs, n, 0)
	if err != nil {
		t.Fatalf("NewReducedOperator: %v", err)
	}
	const k = 5
	bs := make([][]float64, k)
	for c := range bs {
		bs[c] = make([]float64, n)
		for i := range bs[c] {
			bs[c][i] = math.Cos(float64(c*n + i))
		}
	}
	batch, err := ro.SolveBatch(bs, nil, nil, nil)
	if err != nil {
		t.Fatalf("SolveBatch: %v", err)
	}
	for c := range bs {
		single, _ := ro.Solve(bs[c], nil, nil, nil)
		for i := range single {
			if batch[c][i] != single[i] {
				t.Fatalf("column %d row %d: batch %g != single %g", c, i, batch[c][i], single[i])
			}
		}
	}
}
