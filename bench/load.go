package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"
)

// call is one generated request together with the check that holds its
// answer against the reference computed at set-up.
type call struct {
	class  string // request class, e.g. "ev6", "grid32", "query"
	key    string // the router's route key (model fingerprint), when routed
	method string
	path   string // path and query string
	ctype  string // Content-Type; empty sends none
	body   []byte
	steps  int64 // simulated thermal state-steps the request performs
	// check validates a 200 response body; it returns the persisted rows the
	// response acknowledged (0 for requests that persist nothing).
	check func(body []byte) (rows int64, err error)
}

// loop is one closed-loop client: it sends next(i) only after next(i-1) has
// been answered, over its own single connection.
type loop struct {
	base   string // "http://127.0.0.1:port"
	next   func(i int) *call
	client *http.Client
	i      int // next request index; survives across phases
	buf    bytes.Buffer
}

// tally accounts one phase of one or more loops. A request is exactly one of:
// ok (200 and matching the reference), non-200, transport error, or mismatch.
type tally struct {
	attempted int64
	ok        int64
	non200    int64
	transport int64
	mismatch  int64
	steps     int64
	rows      int64
	byClass   map[string]int64     // ok requests per class
	lat       map[string][]float64 // ok latencies per class, ms
	cycles    []cycle
	firstErr  string
	wall      time.Duration
}

// cycle is one closed-loop request cycle, from its send to the loop's next
// send (s since the phase start), with the work it completed.
type cycle struct {
	start, end float64
	ok, steps  float64
}

// windowRate is the median over consecutive windows of about one second of
// the work completed per second, each cycle's work spread evenly over the
// cycle. Medians over windows keep a burst of host noise in one window from
// moving the result.
func windowRate(cycles []cycle, wall float64, work func(c cycle) float64) float64 {
	return median(windowRates(cycles, wall, work))
}

// windowRates is the work rate in each window.
func windowRates(cycles []cycle, wall float64, work func(c cycle) float64) []float64 {
	n := int(wall + 0.5)
	if n < 3 {
		n = 3
	}
	w := wall / float64(n)
	rates := make([]float64, n)
	for _, c := range cycles {
		d := c.end - c.start
		v := work(c)
		if d <= 0 || v == 0 {
			continue
		}
		for k := int(c.start / w); k < n && float64(k)*w < c.end; k++ {
			lo := math.Max(c.start, float64(k)*w)
			hi := math.Min(c.end, float64(k+1)*w)
			if hi > lo {
				rates[k] += v * (hi - lo) / d / w
			}
		}
	}
	return rates
}

func newTally() *tally {
	return &tally{byClass: map[string]int64{}, lat: map[string][]float64{}}
}

// failed counts every attempted request that did not succeed.
func (t *tally) failed() int64 { return t.non200 + t.transport + t.mismatch }

// record accounts one answered (or failed) request. transportErr is the
// client error, status the HTTP status when there was a response, checkErr
// the output check's verdict on a 200.
func (t *tally) record(c *call, status int, transportErr, checkErr error, latMS float64, rows int64) {
	t.attempted++
	var err error
	switch {
	case transportErr != nil:
		t.transport++
		err = transportErr
	case status != http.StatusOK:
		t.non200++
		err = fmt.Errorf("status %d", status)
	case checkErr != nil:
		t.mismatch++
		err = checkErr
	default:
		t.ok++
		t.steps += c.steps
		t.rows += rows
		t.byClass[c.class]++
		t.lat[c.class] = append(t.lat[c.class], latMS)
		return
	}
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf("%s %s: %v", c.class, c.path, err)
	}
}

// merge folds o into t; the wall time becomes the longer of the two.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.ok += o.ok
	t.non200 += o.non200
	t.transport += o.transport
	t.mismatch += o.mismatch
	t.steps += o.steps
	t.rows += o.rows
	for k, v := range o.byClass {
		t.byClass[k] += v
	}
	for k, v := range o.lat {
		t.lat[k] = append(t.lat[k], v...)
	}
	t.cycles = append(t.cycles, o.cycles...)
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
	if o.wall > t.wall {
		t.wall = o.wall
	}
}

// latencies gathers the ok latencies of the given classes (all when nil).
func (t *tally) latencies(classes []string) []float64 {
	if classes == nil {
		var out []float64
		for _, v := range t.lat {
			out = append(out, v...)
		}
		return out
	}
	var out []float64
	for _, c := range classes {
		out = append(out, t.lat[c]...)
	}
	return out
}

// do sends the loop's next call and accounts it.
func (l *loop) do(t *tally) {
	c := l.next(l.i)
	l.i++
	l.send(c, t)
}

// send sends one call and accounts it.
func (l *loop) send(c *call, t *tally) {
	ctx := context.WithValue(context.Background(), callKey{}, c)
	req, err := http.NewRequestWithContext(ctx, c.method, l.base+c.path, bytes.NewReader(c.body))
	if err != nil {
		t.record(c, 0, err, nil, 0, 0)
		return
	}
	if c.ctype != "" {
		req.Header.Set("Content-Type", c.ctype)
	}
	start := time.Now()
	resp, err := l.client.Do(req)
	if err != nil {
		t.record(c, 0, err, nil, 0, 0)
		return
	}
	l.buf.Reset()
	_, err = l.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	latMS := float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		t.record(c, 0, err, nil, 0, 0)
		return
	}
	if resp.StatusCode != http.StatusOK {
		t.record(c, resp.StatusCode, nil, nil, 0, 0)
		return
	}
	rows, cerr := c.check(l.buf.Bytes())
	t.record(c, http.StatusOK, nil, cerr, latMS, rows)
}

// runPhase drives every loop concurrently until d has elapsed, then lets each
// finish its request in flight. The returned wall time runs from the start
// to the last loop's last answer.
func runPhase(loops []*loop, d time.Duration) *tally {
	total := newTally()
	start := time.Now()
	deadline := start.Add(d)
	tallies := make([]*tally, len(loops))
	var wg sync.WaitGroup
	for k, l := range loops {
		tallies[k] = newTally()
		wg.Add(1)
		go func(l *loop, t *tally) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c := cycle{start: time.Since(start).Seconds(), ok: float64(t.ok), steps: float64(t.steps)}
				l.do(t)
				c.end = time.Since(start).Seconds()
				c.ok = float64(t.ok) - c.ok
				c.steps = float64(t.steps) - c.steps
				t.cycles = append(t.cycles, c)
			}
			t.wall = time.Since(start)
		}(l, tallies[k])
	}
	wg.Wait()
	for _, t := range tallies {
		total.merge(t)
	}
	return total
}

// callKey carries the call being sent from the loop to the span transport.
type callKey struct{}

// warmUp sends calls once on l, untimed; any failure aborts the set-up.
func warmUp(l *loop, calls ...*call) error {
	t := newTally()
	for _, c := range calls {
		l.send(c, t)
	}
	if t.failed() > 0 {
		return fmt.Errorf("warm-up: %s", t.firstErr)
	}
	return nil
}

// newTransport is the benchmark's HTTP transport: one connection, no
// compression, nothing shared with other loops.
func newTransport() *http.Transport {
	return &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
}
