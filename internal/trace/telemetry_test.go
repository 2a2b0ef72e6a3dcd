package trace

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"testing/iotest"
)

func TestReadTelemetryRows(t *testing.T) {
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	enc.Encode(TelemetryHeader{Series: "run/cell0/hot", FromNs: 0, ToNs: 5_000_000})
	enc.Encode(TelemetryRow{TNs: 0, V: 345.25})
	enc.Encode(TelemetryRow{TNs: 1_000_000, V: 346.5})
	enc.Encode(TelemetryTrailer{Done: true, Rows: 2})

	res, err := ReadTelemetry(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Header.Series != "run/cell0/hot" || len(res.Rows) != 2 || len(res.Buckets) != 0 {
		t.Fatalf("decoded %+v", res)
	}
	if res.Rows[1].TNs != 1_000_000 || res.Rows[1].V != 346.5 {
		t.Fatalf("row 1: %+v", res.Rows[1])
	}
}

func TestReadTelemetryBuckets(t *testing.T) {
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	enc.Encode(TelemetryHeader{Series: "s", FromNs: 0, ToNs: 100, DownsampleNs: 10})
	enc.Encode(TelemetryBucket{StartNs: 0, Count: 3, Min: 1, Max: 3, Mean: 2, Sum: 6})
	enc.Encode(TelemetryTrailer{Done: true, Rows: 1})
	res, err := ReadTelemetry(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Buckets) != 1 || res.Buckets[0].Sum != 6 {
		t.Fatalf("decoded %+v", res)
	}
}

func TestReadTelemetryRejectsTruncation(t *testing.T) {
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	enc.Encode(TelemetryHeader{Series: "s", FromNs: 0, ToNs: 100})
	enc.Encode(TelemetryRow{TNs: 1, V: 2})
	full := sb.String()

	if _, err := ReadTelemetry(strings.NewReader(full)); err == nil {
		t.Fatal("stream without trailer accepted")
	}
	if _, err := ReadTelemetry(strings.NewReader("")); err == nil {
		t.Fatal("empty stream accepted")
	}
	bad := full + `{"done":true,"rows":7}` + "\n"
	if _, err := ReadTelemetry(strings.NewReader(bad)); err == nil {
		t.Fatal("trailer row-count mismatch accepted")
	}
	if _, err := ReadTelemetry(strings.NewReader("{\"series\":\"s\"}\nnot json\n")); err == nil {
		t.Fatal("garbage line accepted")
	}
}

// TestReadTelemetryEmptyStream: an empty stream says so without a stray
// "<nil>", and a failing reader's error stays matchable.
func TestReadTelemetryEmptyStream(t *testing.T) {
	if _, err := ReadTelemetry(strings.NewReader("")); err == nil || err.Error() != "trace: telemetry stream empty" {
		t.Fatalf("empty stream: %v", err)
	}
	boom := errors.New("boom")
	if _, err := ReadTelemetry(iotest.ErrReader(boom)); !errors.Is(err, boom) {
		t.Fatalf("failing reader: %v, want it to wrap %v", err, boom)
	}
}
