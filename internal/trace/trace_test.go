package trace

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

var names = []string{"a", "b", "c"}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 1); err == nil {
		t.Fatal("no names should fail")
	}
	if _, err := New(names, 0); err == nil {
		t.Fatal("zero interval should fail")
	}
	if _, err := New([]string{"x", "x"}, 1); err == nil {
		t.Fatal("duplicate names should fail")
	}
	if _, err := New([]string{"x", ""}, 1); err == nil {
		t.Fatal("empty name should fail")
	}
}

func TestAppendAndAt(t *testing.T) {
	tr, _ := New(names, 0.5)
	if err := tr.Append([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Append([]float64{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Append([]float64{1, 2}); err == nil {
		t.Fatal("short row should fail")
	}
	if err := tr.Append([]float64{-1, 0, 0}); err == nil {
		t.Fatal("negative power should fail")
	}
	if tr.Duration() != 1.0 {
		t.Fatalf("duration %g", tr.Duration())
	}
	if len(tr.Rows) != 2 || tr.Rows[0][0] != 1 || tr.Rows[1][0] != 4 {
		t.Fatalf("rows %v", tr.Rows)
	}
}

func TestAverageAndScale(t *testing.T) {
	tr, _ := New(names, 1)
	tr.Append([]float64{2, 0, 0})
	tr.Append([]float64{0, 4, 0})
	avg := tr.Average()
	if avg[0] != 1 || avg[1] != 2 || avg[2] != 0 {
		t.Fatalf("avg %v", avg)
	}
	if tr.TotalAverage() != 3 {
		t.Fatalf("total avg %g", tr.TotalAverage())
	}
	tr.Scale(0.5)
	if tr.Rows[0][0] != 1 {
		t.Fatal("scale wrong")
	}
}

func TestStepBuilder(t *testing.T) {
	tr, err := Step(names, map[string]float64{"b": 7}, 2.0, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Rows) != 8 {
		t.Fatalf("%d rows", len(tr.Rows))
	}
	for _, row := range tr.Rows {
		if row[1] != 7 || row[0] != 0 {
			t.Fatal("step content wrong")
		}
	}
	if _, err := Step(names, map[string]float64{"zz": 1}, 1, 0.5); err == nil {
		t.Fatal("unknown block should fail")
	}
}

func TestPulseTrain(t *testing.T) {
	// The paper's §4.1.2 schedule: 15 ms on, 85 ms off.
	tr, err := PulseTrain(names, "a", 2.0, 15e-3, 85e-3, 1e-3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Rows) != 300 {
		t.Fatalf("%d rows, want 300", len(tr.Rows))
	}
	// Duty cycle 15%: average = 0.3 W.
	if avg := tr.Average()[0]; math.Abs(avg-0.3) > 1e-12 {
		t.Fatalf("average %g, want 0.3", avg)
	}
	if tr.Rows[0][0] != 2 || tr.Rows[20][0] != 0 || tr.Rows[100][0] != 2 {
		t.Fatal("pulse pattern wrong")
	}
	if _, err := PulseTrain(names, "zz", 1, 1, 1, 1, 1); err == nil {
		t.Fatal("unknown block should fail")
	}
}

func TestSwitchBuilder(t *testing.T) {
	// Fig. 9: IntReg for 10 ms, then FPMap.
	tr, err := Switch(names, "a", "c", 2.0, 10e-3, 20e-3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Rows) != 20 {
		t.Fatalf("%d rows", len(tr.Rows))
	}
	if tr.Rows[5][0] != 2 || tr.Rows[5][2] != 0 {
		t.Fatal("pre-switch wrong")
	}
	if tr.Rows[15][0] != 0 || tr.Rows[15][2] != 2 {
		t.Fatal("post-switch wrong")
	}
}

func TestRepeat(t *testing.T) {
	tr, _ := New(names, 1)
	tr.Append([]float64{1, 0, 0})
	r := tr.Repeat(5)
	if len(r.Rows) != 5 || r.Duration() != 5 {
		t.Fatal("repeat wrong")
	}
}

// TestWriteReadRoundTrip: Write then Read returns every power bit for bit,
// across magnitudes and at full precision.
func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr, _ := New(names, 3.33e-6)
	row := make([]float64, len(names))
	for i := 0; i < 500; i++ {
		for j := range row {
			row[j] = rng.Float64() * math.Pow(10, float64(rng.Intn(61)-30))
		}
		row[i%len(row)] = math.Round(row[i%len(row)]*1000) / 1000
		if err := tr.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Interval != tr.Interval {
		t.Fatalf("interval lost: %g vs %g", got.Interval, tr.Interval)
	}
	if len(got.Rows) != len(tr.Rows) {
		t.Fatalf("rows %d vs %d", len(got.Rows), len(tr.Rows))
	}
	for i := range tr.Rows {
		for j := range tr.Rows[i] {
			if math.Float64bits(got.Rows[i][j]) != math.Float64bits(tr.Rows[i][j]) {
				t.Fatalf("row %d col %d: read %.17g, wrote %.17g", i, j, got.Rows[i][j], tr.Rows[i][j])
			}
		}
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader(""), 1); err == nil {
		t.Fatal("empty input should fail")
	}
	if _, err := Read(strings.NewReader("a b\n1 x\n"), 1); err == nil {
		t.Fatal("bad number should fail")
	}
	if _, err := Read(strings.NewReader("a b\n1 2 3\n"), 1); err == nil {
		t.Fatal("row length mismatch should fail")
	}
	if _, err := Read(strings.NewReader("a b\n1 2\n"), 0); err == nil {
		t.Fatal("missing interval should fail")
	}
	// Default interval is used when no comment is present.
	tr, err := Read(strings.NewReader("a b\n1 2\n"), 0.125)
	if err != nil || tr.Interval != 0.125 {
		t.Fatalf("default interval: %v %g", err, tr.Interval)
	}
}

func TestMapAccessor(t *testing.T) {
	tr, _ := New(names, 1)
	tr.Append([]float64{1, 2, 3})
	m := tr.Map(0)
	if m["a"] != 1 || m["c"] != 3 {
		t.Fatalf("map %v", m)
	}
}

// Property: PulseTrain average equals watts·duty for random parameters.
func TestPulseTrainAverageProperty(t *testing.T) {
	f := func(onRaw, offRaw uint8) bool {
		on := 1 + int(onRaw)%20
		off := 1 + int(offRaw)%20
		tr, err := PulseTrain(names, "a", 4.0, float64(on), float64(off), 1, 3)
		if err != nil {
			return false
		}
		want := 4.0 * float64(on) / float64(on+off)
		return math.Abs(tr.Average()[0]-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
