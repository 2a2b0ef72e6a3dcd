package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// runRepeat runs each workload n times, each run in a fresh process of this
// binary with its own seed (seed, seed+1, ...), alternating the workload
// order between rounds, and prints every metric's median, quartiles and
// spreads per workload. Each run's result line goes to standard error.
func runRepeat(o options, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadNames()
	values := map[string]map[string][]float64{} // workload → metric → values
	units := map[string]string{}
	for rep := 0; rep < n; rep++ {
		order := append([]string(nil), names...)
		if rep%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, name := range order {
			seed := o.seed + int64(rep)
			args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64)}
			cmd := exec.Command(exe, args...)
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s seed %d: correct %v, %d of %d failed", name, seed, res.Correct, res.Failed, res.Attempted)
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for k, m := range res.Metrics {
				values[name][k] = append(values[name][k], m.Value)
				units[k] = m.Unit
			}
			fmt.Fprintf(os.Stderr, "repeat %d/%d %s seed %d: %s\n", rep+1, n, name, seed, lines[len(lines)-1])
		}
	}
	fmt.Printf("%d runs per workload, %gs measured each; spreads are shares of the median\n", n, o.seconds)
	fmt.Printf("%-14s %-16s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "IQR", "max-min", "unit")
	for _, name := range names {
		for _, k := range slices.Sorted(maps.Keys(values[name])) {
			xs := values[name][k]
			med := median(xs)
			q1, q3 := quartiles(xs)
			lo, hi := minMax(xs)
			fmt.Printf("%-14s %-16s %12.5g %12.5g %12.5g %7.1f%% %7.1f%% %6s\n",
				name, k, med, q1, q3, 100*(q3-q1)/med, 100*(hi-lo)/med, units[k])
		}
	}
	return nil
}

// quartiles returns the first and third quartiles by the "exclusive" method
// of Python's statistics.quantiles(xs, n=4): position i(n+1)/4, clamped to
// the data, linearly interpolated.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
