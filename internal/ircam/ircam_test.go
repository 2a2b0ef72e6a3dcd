package ircam

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/hotspot"
	"repro/internal/sensors"
	"repro/internal/trace"
)

func defaultCam() Camera {
	return Camera{FrameRate: 100, PixelsX: 64, PixelsY: 64, PSFSigmaPixels: 1}
}

func TestCameraValidate(t *testing.T) {
	if err := defaultCam().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := defaultCam()
	bad.FrameRate = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero frame rate should fail")
	}
	bad = defaultCam()
	bad.PixelsX = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero resolution should fail")
	}
	bad = defaultCam()
	bad.PSFSigmaPixels = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative sigma should fail")
	}
}

// spikeMap is uniform 50 °C with one 100 °C pixel at the center.
func spikeMap(t *testing.T, n int) *sensors.ThermalMap {
	t.Helper()
	cells := make([]float64, n*n)
	for i := range cells {
		cells[i] = 50
	}
	cells[(n/2)*n+n/2] = 100
	m, err := sensors.NewThermalMap(n, n, 0.016, 0.016, cells)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCaptureBlursSpike(t *testing.T) {
	m := spikeMap(t, 64)
	cam := Camera{FrameRate: 100, PixelsX: 64, PixelsY: 64, PSFSigmaPixels: 2}
	img, err := cam.Capture(m)
	if err != nil {
		t.Fatal(err)
	}
	trueMax, _, _ := m.Max()
	seenMax, _, _ := img.Max()
	if seenMax >= trueMax-5 {
		t.Fatalf("PSF should smear the spike: %g vs true %g", seenMax, trueMax)
	}
	// Energy conservation-ish: blur must not change the mean much.
	mean := func(cells []float64) float64 {
		var s float64
		for _, v := range cells {
			s += v
		}
		return s / float64(len(cells))
	}
	if d := math.Abs(mean(img.CellsC) - mean(m.CellsC)); d > 0.2 {
		t.Fatalf("blur changed the mean by %g", d)
	}
}

func TestCaptureDownsamples(t *testing.T) {
	m := spikeMap(t, 64)
	cam := Camera{FrameRate: 100, PixelsX: 16, PixelsY: 16}
	img, err := cam.Capture(m)
	if err != nil {
		t.Fatal(err)
	}
	if img.NX != 16 || img.NY != 16 {
		t.Fatalf("resolution %dx%d", img.NX, img.NY)
	}
	// 4×4 source cells per pixel: the spike is averaged down 16×.
	seenMax, _, _ := img.Max()
	want := 50 + 50.0/16
	if math.Abs(seenMax-want) > 0.5 {
		t.Fatalf("downsampled spike %g, want ≈%g", seenMax, want)
	}
}

func TestCaptureUpsamples(t *testing.T) {
	m := spikeMap(t, 8)
	cam := Camera{FrameRate: 100, PixelsX: 32, PixelsY: 32}
	img, err := cam.Capture(m)
	if err != nil {
		t.Fatal(err)
	}
	seenMax, _, _ := img.Max()
	if math.Abs(seenMax-100) > 1e-9 {
		t.Fatalf("upsampling should preserve values, got %g", seenMax)
	}
}

// shortPulseTrace simulates a 3 ms IntReg burst sampled at 0.5 ms.
func shortPulseTrace(t *testing.T) ([]hotspot.TracePoint, int) {
	t.Helper()
	fp := floorplan.EV6()
	m, err := hotspot.New(hotspot.Config{
		Floorplan: fp,
		Package:   hotspot.AirSink,
		Air:       hotspot.AirSinkConfig{RConvec: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.PulseTrain(fp.Names(), "IntReg", 5, 3e-3, 17e-3, 0.5e-3, 1)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := m.NewSession().ReplayRows(m.AmbientState(), tr.Reader())
	if err != nil {
		t.Fatal(err)
	}
	return pts, fp.Index("IntReg")
}

func TestSlowCameraMissesTransient(t *testing.T) {
	// §5.1: 3 ms thermal events are shorter than typical IR sampling
	// intervals. A 50 Hz camera (20 ms period) must under-report the peak
	// that a 2 kHz sampler would see.
	pts, idx := shortPulseTrace(t)
	truePeak := TruePeak(pts, idx)

	slow := Camera{FrameRate: 50, PixelsX: 8, PixelsY: 8}
	frames, err := slow.FilmTrace(pts)
	if err != nil {
		t.Fatal(err)
	}
	// 20 ms of trace at 50 Hz: the camera sees ~2 frames (t=0 and t=20ms),
	// both outside the 3 ms pulse peak.
	slowPeak := PeakSeen(frames, idx)
	if slowPeak >= truePeak-0.2 {
		t.Fatalf("slow camera should miss the transient: saw %g, true %g", slowPeak, truePeak)
	}

	fast := Camera{FrameRate: 2000, PixelsX: 8, PixelsY: 8}
	fframes, err := fast.FilmTrace(pts)
	if err != nil {
		t.Fatal(err)
	}
	if p := PeakSeen(fframes, idx); p < truePeak-1e-9 {
		t.Fatalf("2 kHz sampling should capture the peak: %g vs %g", p, truePeak)
	}
}

func TestFilmTraceErrors(t *testing.T) {
	cam := defaultCam()
	if _, err := cam.FilmTrace(nil); err == nil {
		t.Fatal("empty trace should fail")
	}
}

func multicore() *floorplan.Floorplan {
	mm := 1e-3
	return floorplan.MustNew([]floorplan.Block{
		{Name: "core0", Width: 5 * mm, Height: 20 * mm, X: 0, Y: 0},
		{Name: "core1", Width: 5 * mm, Height: 20 * mm, X: 5 * mm, Y: 0},
		{Name: "core2", Width: 5 * mm, Height: 20 * mm, X: 10 * mm, Y: 0},
		{Name: "core3", Width: 5 * mm, Height: 20 * mm, X: 15 * mm, Y: 0},
	})
}

func oilModel(t *testing.T, fp *floorplan.Floorplan, dir hotspot.FlowDirection) *hotspot.Model {
	t.Helper()
	m, err := hotspot.New(hotspot.Config{
		Floorplan: fp,
		Package:   hotspot.OilSilicon,
		Oil:       hotspot.OilConfig{Direction: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestInfluenceMatrixProperties(t *testing.T) {
	m := oilModel(t, multicore(), hotspot.Uniform)
	a := InfluenceMatrix(m)
	n := m.Floorplan().N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if a.At(i, j) <= 0 {
				t.Fatalf("influence (%d,%d) = %g, must be positive", i, j, a.At(i, j))
			}
		}
		// Self-influence dominates.
		for j := 0; j < n; j++ {
			if j != i && a.At(i, i) <= a.At(i, j) {
				t.Fatalf("self influence should dominate row %d", i)
			}
		}
	}
}

func TestPowerInversionRecoversTruth(t *testing.T) {
	// Direction-aware inversion: simulate under left-to-right flow, invert
	// with the same model → recover the true powers.
	fp := multicore()
	m := oilModel(t, fp, hotspot.LeftToRight)
	truth := []float64{10, 10, 10, 10}
	vec, err := m.BlockPowerVector(truth)
	if err != nil {
		t.Fatal(err)
	}
	obs := m.SteadyState(vec).BlocksC()
	got, err := InvertPower(m, obs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(got[i]-truth[i]) > 0.05 {
			t.Fatalf("direction-aware inversion: core%d = %g, want 10", i, got[i])
		}
	}
}

func TestFlowDirectionArtifact(t *testing.T) {
	// §5.4: equal-power cores under a left-to-right flow appear hotter on
	// the right; inverting with a no-direction (uniform-h) model then
	// attributes spuriously higher power to the downstream cores.
	fp := multicore()
	truthModel := oilModel(t, fp, hotspot.LeftToRight)
	truth := []float64{10, 10, 10, 10}
	vec, err := truthModel.BlockPowerVector(truth)
	if err != nil {
		t.Fatal(err)
	}
	res := truthModel.SteadyState(vec)
	obs := res.BlocksC()
	// Downstream cores read hotter.
	if !(obs[3] > obs[0]) {
		t.Fatalf("downstream core should be hotter: %v", obs)
	}
	naive := oilModel(t, fp, hotspot.Uniform)
	got, err := InvertPower(naive, obs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got[3] <= got[0]*1.05 {
		t.Fatalf("uniform-model inversion should inflate downstream power: %v", got)
	}
	// Direction-aware inversion fixes it.
	fixed, err := InvertPower(truthModel, obs, 0)
	if err != nil {
		t.Fatal(err)
	}
	skewNaive := got[3] - got[0]
	skewFixed := math.Abs(fixed[3] - fixed[0])
	if skewFixed >= skewNaive/4 {
		t.Fatalf("direction-aware inversion should remove the skew: %g vs %g", skewFixed, skewNaive)
	}
}

func TestInvertPowerValidation(t *testing.T) {
	m := oilModel(t, multicore(), hotspot.Uniform)
	if _, err := InvertPower(m, []float64{1, 2}, 0); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

// TestInfluenceMatrixReciprocity: the influence matrix of any thermal RC
// model is symmetric (reciprocity of resistive networks) — the property the
// least-squares inversion implicitly relies on for good conditioning.
func TestInfluenceMatrixReciprocity(t *testing.T) {
	for _, dir := range []hotspot.FlowDirection{hotspot.Uniform, hotspot.LeftToRight, hotspot.TopToBottom} {
		m := oilModel(t, multicore(), dir)
		a := InfluenceMatrix(m)
		for i := 0; i < a.Rows; i++ {
			for j := i + 1; j < a.Cols; j++ {
				if d := math.Abs(a.At(i, j) - a.At(j, i)); d > 1e-9*(1+math.Abs(a.At(i, j))) {
					t.Fatalf("dir %v: influence not symmetric at (%d,%d): %g vs %g",
						dir, i, j, a.At(i, j), a.At(j, i))
				}
			}
		}
	}
}

// TestInversionRobustToNoise: small measurement noise produces small power
// errors (the regularized inversion is well-conditioned on block scales).
func TestInversionRobustToNoise(t *testing.T) {
	fp := multicore()
	m := oilModel(t, fp, hotspot.LeftToRight)
	truth := []float64{8, 12, 9, 11}
	vec, err := m.BlockPowerVector(truth)
	if err != nil {
		t.Fatal(err)
	}
	obs := m.SteadyState(vec).BlocksC()
	// ±0.2 °C deterministic perturbation (typical IR accuracy).
	noisy := append([]float64(nil), obs...)
	for i := range noisy {
		if i%2 == 0 {
			noisy[i] += 0.2
		} else {
			noisy[i] -= 0.2
		}
	}
	got, err := InvertPower(m, noisy, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(got[i]-truth[i]) > 1.0 {
			t.Fatalf("noise blew up inversion at %d: %g vs %g", i, got[i], truth[i])
		}
	}
}
