package hotspot

import "fmt"

// TelemetrySink consumes per-block temperature telemetry emitted by trace
// replays, one whole series per call. The tstore package's Writer satisfies
// this, as does any in-memory buffer a test supplies. The simulation layer
// depends only on this interface so the store's import graph stays
// one-directional (tstore never imports hotspot).
type TelemetrySink interface {
	// AppendSeries receives one series' samples in time order: values[i]
	// at times[i] seconds. The slices are only valid during the call.
	AppendSeries(series string, times, values []float64) error
}

// EmitTracePoints streams a replay's sampled block temperatures into sink,
// one AppendSeries call per block, named "<prefix>/<block>" (or just the
// block name when prefix is empty). Points must all carry len(names)
// temperatures — the shape Session.ReplayRows and ReplayBatchResults
// produce against the model the names came from; every point is checked before the
// first append, so a malformed point appends nothing. The first sink error
// aborts the emit and is returned with the offending series attached.
func EmitTracePoints(sink TelemetrySink, prefix string, names []string, pts []TracePoint) error {
	for i, p := range pts {
		if len(p.BlockC) != len(names) {
			return fmt.Errorf("hotspot: telemetry point %d has %d blocks, names has %d", i, len(p.BlockC), len(names))
		}
	}
	if len(pts) == 0 {
		return nil
	}
	times := make([]float64, len(pts))
	for i, p := range pts {
		times[i] = p.Time
	}
	values := make([]float64, len(pts))
	for b, name := range names {
		for i, p := range pts {
			values[i] = p.BlockC[b]
		}
		series := name
		if prefix != "" {
			series = prefix + "/" + name
		}
		if err := sink.AppendSeries(series, times, values); err != nil {
			return fmt.Errorf("hotspot: telemetry sink, series %q: %w", series, err)
		}
	}
	return nil
}
