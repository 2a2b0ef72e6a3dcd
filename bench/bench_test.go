package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{hundred, 99, 99},
		{hundred, 50, 50},
		{hundred, 100, 100},
		{hundred, 1, 1},
		{hundred, 0.5, 1},
		{[]float64{1, 2}, 50, 1},
		{[]float64{1, 2}, 51, 2},
		{[]float64{7}, 99, 7},
	} {
		if got := nearestRank(c.xs, c.p); got != c.want {
			t.Errorf("p%g of %d samples = %g, want %g", c.p, len(c.xs), got, c.want)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 99, false}, // 1 sample beyond
		{999, 99, false}, // 9 beyond
		{1000, 99, true}, // 10 beyond
		{20, 50, true},   // 10 beyond
		{19, 50, false},  // 9 beyond
		{0, 50, false},
	} {
		xs := make([]float64, c.n)
		if _, ok := percentile(xs, c.p); ok != c.want {
			t.Errorf("p%g of %d samples reported = %v, want %v", c.p, c.n, ok, c.want)
		}
	}
}

func TestTailRank(t *testing.T) {
	for _, c := range []struct {
		n, want int
		ok      bool
	}{{5000, 4950, true}, {1000, 990, true}, {999, 989, true}, {160, 150, true}, {50, 40, true}, {11, 1, true}, {10, 0, false}} {
		r, ok := tailRank(c.n)
		if r != c.want || ok != c.ok {
			t.Errorf("tailRank(%d) = %d, %v; want %d, %v", c.n, r, ok, c.want, c.ok)
		}
		if ok && c.n-r < minTail {
			t.Errorf("tailRank(%d) = %d leaves fewer than %d samples beyond", c.n, r, minTail)
		}
	}
}

func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{1, 2, 3}); q1 != 1 || q3 != 3 {
		t.Fatalf("quartiles of 3 = %g, %g; want 1, 3", q1, q3)
	}
}

func TestWindowRateSpreadsWorkOverCycles(t *testing.T) {
	// One request every 0.4 s for 10 s: 2.5 requests per second in every
	// window, though no window holds a whole number of requests.
	var cycles []cycle
	for s := 0.0; s < 10-1e-9; s += 0.4 {
		cycles = append(cycles, cycle{start: s, end: s + 0.4, ok: 1, steps: 8})
	}
	if got := windowRate(cycles, 10, func(c cycle) float64 { return c.ok }); math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("rate = %g, want 2.5", got)
	}
	if got := windowRate(cycles, 10, func(c cycle) float64 { return c.steps }); math.Abs(got-20) > 1e-9 {
		t.Fatalf("step rate = %g, want 20", got)
	}
}

// TestFailureAccounting holds the tally to its contract: a refused request
// (429) and a wrong answer each count once as failed, neither is timed, and
// a correct answer counts once as ok.
func TestFailureAccounting(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/shed":
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"shed"}`, http.StatusTooManyRequests)
		default:
			fmt.Fprint(w, `{"answer":41}`)
		}
	}))
	defer srv.Close()
	want := func(b []byte) (int64, error) {
		if string(b) != `{"answer":42}` {
			return 0, fmt.Errorf("answer %s, reference 42", b)
		}
		return 0, nil
	}
	e := &env{}
	l := e.newLoop(srv.URL, nil)
	tl := newTally()
	l.send(&call{class: "a", method: "GET", path: "/shed", check: want}, tl)
	l.send(&call{class: "a", method: "GET", path: "/wrong", check: want}, tl)
	l.send(&call{class: "a", method: "GET", path: "/right", check: func([]byte) (int64, error) { return 0, nil }}, tl)
	if tl.attempted != 3 || tl.failed() != 2 || tl.non200 != 1 || tl.mismatch != 1 || tl.transport != 0 || tl.ok != 1 {
		t.Fatalf("attempted %d failed %d (non-200 %d, mismatch %d, transport %d) ok %d; want 3, 2 (1, 1, 0), 1",
			tl.attempted, tl.failed(), tl.non200, tl.mismatch, tl.transport, tl.ok)
	}
	if n := len(tl.lat["a"]); n != 1 {
		t.Fatalf("%d latencies recorded, want 1 (only the correct answer)", n)
	}
}

// TestWorkloadsSmoke runs every workload for about a second with every
// output check on, plus one traced run; it keeps the benchmark building and
// its references agreeing with the served answers.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving stack")
	}
	for _, w := range workloads {
		o := options{workload: w.name, seed: 7, seconds: 0.6, warmup: 100 * time.Millisecond,
			setups: 1, root: "..", work: t.TempDir()}
		o.trace = w.name == "interactive"
		res, err := runWorkload(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: correct %v, %d of %d failed: %v", w.name, res.Correct, res.Failed, res.Attempted, res.lines)
		}
		if _, ok := res.Metrics["requests_per_s"]; !o.trace && !ok {
			t.Fatalf("%s: no requests_per_s", w.name)
		}
		if o.trace {
			if err := res.complete(true); err != nil {
				t.Fatalf("%s traced: %v", w.name, err)
			}
		}
	}
}
