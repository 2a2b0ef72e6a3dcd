package hotspot

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"

	"repro/internal/materials"
)

// fingerprintWriter serializes model-defining values into a hash with a
// stable, platform-independent encoding (IEEE-754 bit patterns, length-
// prefixed strings).
type fingerprintWriter struct {
	h   io.Writer
	buf [8]byte
}

func (w *fingerprintWriter) f64(vs ...float64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(w.buf[:], math.Float64bits(v))
		w.h.Write(w.buf[:])
	}
}

func (w *fingerprintWriter) str(s string) {
	binary.LittleEndian.PutUint64(w.buf[:], uint64(len(s)))
	w.h.Write(w.buf[:])
	w.h.Write([]byte(s))
}

func (w *fingerprintWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *fingerprintWriter) bool(b bool) {
	if b {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

func (w *fingerprintWriter) fluid(f materials.Fluid) {
	w.str(f.Name)
	w.f64(f.Conductivity, f.Density, f.SpecificHeat, f.KinViscosity)
}

// Fingerprint returns a stable hex digest of everything that determines the
// compiled thermal model: the floorplan geometry, the (defaulted) package
// configuration, and the material properties that enter through the config
// (coolant fluids). Two configs with equal fingerprints build bit-identical
// models, so the fingerprint is the cache key used by the simulation
// service's compiled-model cache. Solid material constants are compiled into
// the binary; the leading version tag must be bumped if they ever change.
func (cfg Config) Fingerprint() string {
	c := cfg.Defaulted()
	h := sha256.New()
	// Buffer the many small field writes; a large floorplan is thousands of
	// them and this sits on the service's warm request path.
	bw := bufio.NewWriterSize(h, 4096)
	w := &fingerprintWriter{h: bw}
	w.str("hotspot-model-v3")

	fp := c.Floorplan
	if fp == nil {
		w.u64(0)
	} else {
		w.u64(uint64(fp.N()))
		for _, b := range fp.Blocks {
			w.str(b.Name)
			w.f64(b.Width, b.Height, b.X, b.Y)
		}
	}
	w.f64(c.DieThickness, c.AmbientK, c.LateralConstriction)
	w.u64(uint64(c.Package))

	a := c.Air
	w.f64(a.TIMThickness, a.SpreaderSide, a.SpreaderThickness,
		a.SinkSide, a.SinkThickness, a.RConvec, a.CConvec)

	o := c.Oil
	w.fluid(o.Fluid)
	w.f64(o.Velocity, o.TargetRconv)
	w.u64(uint64(o.Direction))
	w.bool(o.DisableBoundaryCapacitance)

	m := c.Micro.defaulted()
	w.fluid(m.Coolant)
	w.f64(m.ChannelWidth, m.ChannelDepth, m.WallWidth, m.Nu, m.FinEfficiency)

	s := c.Secondary
	w.bool(s.Enabled)
	w.f64(s.InterconnectThickness, s.C4Thickness, s.SubstrateThickness,
		s.SolderThickness, s.PCBThickness, s.SubstrateSide, s.PCBSide, s.BacksideRAir)

	bw.Flush()
	return hex.EncodeToString(h.Sum(nil))
}

// Fingerprint returns the fingerprint of the (defaulted) configuration this
// model was built from.
func (m *Model) Fingerprint() string { return m.cfg.Fingerprint() }
