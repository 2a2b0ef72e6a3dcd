package linalg

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens")

// factorBitsGolden holds one line per factored operator: its name, then
// the FNV-1a 64 hashes of the panels, pivots, inverse pivots, compressed
// column values and compressed row values.
const factorBitsGolden = "testdata/factor_bits.golden"

// hashFloats returns the FNV-1a 64 hash of the little-endian bits of v.
func hashFloats(v []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range v {
		b := math.Float64bits(x)
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// factorBits renders one golden line for op's numeric factor.
func factorBits(name string, op *CholeskyOperator) string {
	f := op.f
	return fmt.Sprintf("%s %016x %016x %016x %016x %016x\n", name,
		hashFloats(f.vals), hashFloats(f.d), hashFloats(f.invD),
		hashFloats(f.c.cvals), hashFloats(f.c.rvals))
}

// factorBitsLines factors every golden grid operator and one seeded
// diagonal shift of each, returning their golden lines.
func factorBitsLines(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, g := range []struct{ nx, ny int }{{32, 32}, {48, 48}, {96, 96}, {128, 128}, {40, 100}} {
		n, entries := gridEntries(g.nx, g.ny)
		op := cholOf(t, n, entries)
		name := fmt.Sprintf("grid%dx%d", g.nx, g.ny)
		sb.WriteString(factorBits(name, op))
		rng := rand.New(rand.NewSource(int64(n)))
		shift := make([]float64, n)
		for i := range shift {
			shift[i] = rng.Float64()
		}
		shifted, err := op.Shift(shift)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(factorBits(name+"+shift", shifted))
	}
	return sb.String()
}

// TestFactorBitsGolden pins every bit of the numeric factor — panels,
// pivots, inverse pivots and both compressed views — on grid operators
// from 32² to 128² unknowns and a non-square 40×100 grid, each also under a
// seeded diagonal Shift (the backward-Euler refactorization path). Both
// GOMAXPROCS 1 and 4 must reproduce the checked-in hashes; -update
// rewrites them, only for an intended change of the factor's arithmetic.
func TestFactorBitsGolden(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		got := factorBitsLines(t)
		if *updateGolden && procs == 1 {
			if err := os.WriteFile(factorBitsGolden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(factorBitsGolden)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		if len(wl) != len(gl) {
			t.Fatalf("GOMAXPROCS=%d: golden has %d lines, got %d", procs, len(wl), len(gl))
		}
		for i := range wl {
			if wl[i] != gl[i] {
				t.Fatalf("GOMAXPROCS=%d: %s line %d:\n  golden %s\n  got    %s", procs, factorBitsGolden, i+1, wl[i], gl[i])
			}
		}
	}
}
