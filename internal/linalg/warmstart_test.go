package linalg

import (
	"math"
	"testing"
)

// CG is the one solver that takes a warm start: it uses x0 as its initial
// guess and must converge in fewer iterations when the guess is close.

// gridTestSystem builds an SPD grid-Laplacian system: an nx×ny five-point
// stencil plus ambient legs on the boundary, the same shape as an
// assembled RC thermal network.
func gridTestSystem(nx, ny int) *CSR {
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
	return NewCSR(n, entries)
}

func warmTestRHS(k, n int) [][]float64 {
	b := make([][]float64, k)
	for c := range b {
		b[c] = make([]float64, n)
		for i := range b[c] {
			b[c][i] = math.Sin(float64(c + 1*i))
		}
	}
	return b
}

// CG must exploit a close warm start: starting each column from its
// converged answer has to take strictly fewer iterations than starting
// cold, while reaching the same tolerance.
func TestCGWarmStartConvergesFaster(t *testing.T) {
	g := gridTestSystem(12, 12)
	n := g.N
	opt := CGOptions{Tol: 1e-10, MaxIter: 50 * n}
	const k = 3
	b := warmTestRHS(k, n)
	var ws Workspace
	coldIters := make([]int, k)
	sols := make([][]float64, k)
	for c := range b {
		x := make([]float64, n)
		res := solveCGWS(g, b[c], nil, x, opt, &ws)
		if !res.Converged {
			t.Fatalf("cold solve %d: %+v", c, res)
		}
		coldIters[c] = res.Iterations
		if coldIters[c] < 2 {
			t.Fatalf("cold solve %d took %d iterations — system too easy to observe warm-start gains", c, coldIters[c])
		}
		sols[c] = x
	}
	for c := range b {
		x := make([]float64, n)
		res := solveCGWS(g, b[c], sols[c], x, opt, &ws)
		if !res.Converged {
			t.Fatalf("warm solve %d: %+v", c, res)
		}
		if res.Iterations >= coldIters[c] {
			t.Fatalf("column %d: warm start took %d iterations, cold took %d — x0 not exploited", c, res.Iterations, coldIters[c])
		}
		for i := range x {
			if math.Abs(x[i]-sols[c][i]) > 1e-6*(1+math.Abs(sols[c][i])) {
				t.Fatalf("column %d: warm answer drifted at %d: %g vs %g", c, i, x[i], sols[c][i])
			}
		}
	}
}
