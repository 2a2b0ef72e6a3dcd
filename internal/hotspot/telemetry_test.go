package hotspot

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

type sinkCall struct {
	series        string
	times, values []float64
}

// colSink records each AppendSeries call, copying the slices the emitter
// may reuse.
type colSink struct {
	calls  []sinkCall
	shared []*float64 // &times[0] per call
	failAt int        // fail the nth call (1-based); 0 = never
}

func (c *colSink) AppendSeries(series string, times, values []float64) error {
	if c.failAt > 0 && len(c.calls)+1 == c.failAt {
		return errors.New("sink full")
	}
	c.calls = append(c.calls, sinkCall{series, append([]float64(nil), times...), append([]float64(nil), values...)})
	c.shared = append(c.shared, &times[0])
	return nil
}

func TestEmitTracePoints(t *testing.T) {
	pts := []TracePoint{
		{Time: 0, BlockC: []float64{300, 310}},
		{Time: 1e-3, BlockC: []float64{301, 311}},
		{Time: 2e-3, BlockC: []float64{302, 312}},
	}
	names := []string{"A", "B"}

	// One call per block, in block order, each with the block's column.
	var sink colSink
	if err := EmitTracePoints(&sink, "run1", names, pts); err != nil {
		t.Fatal(err)
	}
	want := []sinkCall{
		{"run1/A", []float64{0, 1e-3, 2e-3}, []float64{300, 301, 302}},
		{"run1/B", []float64{0, 1e-3, 2e-3}, []float64{310, 311, 312}},
	}
	if len(sink.calls) != len(want) {
		t.Fatalf("%d calls, want one per block", len(sink.calls))
	}
	for i, w := range want {
		got := sink.calls[i]
		if got.series != w.series || !slices.Equal(got.times, w.times) || !slices.Equal(got.values, w.values) {
			t.Fatalf("call %d: %+v, want %+v", i, got, w)
		}
	}
	// The time column is built once and shared by every block.
	if sink.shared[0] != sink.shared[1] {
		t.Fatal("each block got its own times slice")
	}

	// Empty prefix: series are the bare block names.
	sink = colSink{}
	if err := EmitTracePoints(&sink, "", names, pts[:1]); err != nil {
		t.Fatal(err)
	}
	if sink.calls[0].series != "A" || sink.calls[1].series != "B" {
		t.Fatalf("bare series %v, %v", sink.calls[0].series, sink.calls[1].series)
	}

	// A shape mismatch is an error, not a panic, and appends nothing — even
	// when the malformed point comes after well-formed ones.
	sink = colSink{}
	bad := append(append([]TracePoint(nil), pts...), TracePoint{Time: 3e-3, BlockC: []float64{303}})
	if err := EmitTracePoints(&sink, "", names, bad); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if len(sink.calls) != 0 {
		t.Fatalf("shape mismatch appended %d series", len(sink.calls))
	}

	// Sink errors propagate with the series attached.
	err := EmitTracePoints(&colSink{failAt: 2}, "r", names, pts)
	if err == nil || !strings.Contains(err.Error(), `"r/B"`) {
		t.Fatalf("sink error not propagated with series: %v", err)
	}
}
