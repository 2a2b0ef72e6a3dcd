// Package hotspot implements the paper's primary contribution: a
// HotSpot-style compact thermal model extended with (a) an IR-transparent
// laminar oil flow over the bare silicon die (OIL-SILICON), including the
// flow-direction-dependent local heat transfer coefficient and the oil
// boundary layer's thermal capacitance, and (b) the secondary heat transfer
// path through the on-chip interconnect stack, C4 bumps/underfill, package
// substrate, solder balls and printed-circuit board.
//
// A Model is built from a floorplan plus a Config describing the package; it
// exposes steady-state solves, transient integration and trace-driven
// simulation via the rcnet substrate.
package hotspot

import (
	"fmt"
	"math"

	"repro/internal/floorplan"
	"repro/internal/materials"
)

// PackageKind selects the cooling configuration.
type PackageKind int

const (
	// AirSink is forced air over a copper heatsink attached through a heat
	// spreader and thermal interface material — the conventional package.
	AirSink PackageKind = iota
	// OilSilicon is laminar IR-transparent oil flowing over the bare die —
	// the IR thermal-imaging configuration.
	OilSilicon
	// Microchannel is integrated liquid cooling in channels etched into the
	// die back side (the paper's §2.1 taxonomy; design-space extension).
	Microchannel
)

func (k PackageKind) String() string {
	switch k {
	case AirSink:
		return "AIR-SINK"
	case OilSilicon:
		return "OIL-SILICON"
	case Microchannel:
		return "MICROCHANNEL"
	default:
		return fmt.Sprintf("PackageKind(%d)", int(k))
	}
}

// FlowDirection is the oil flow direction across the die. Uniform applies
// the plate-average heat transfer coefficient everywhere (no directional
// dependence); the four directional values use the local coefficient h(x)
// measured from the corresponding leading edge (paper eq. 7-8).
type FlowDirection int

const (
	Uniform FlowDirection = iota
	LeftToRight
	RightToLeft
	BottomToTop
	TopToBottom
)

func (d FlowDirection) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case LeftToRight:
		return "left-to-right"
	case RightToLeft:
		return "right-to-left"
	case BottomToTop:
		return "bottom-to-top"
	case TopToBottom:
		return "top-to-bottom"
	default:
		return fmt.Sprintf("FlowDirection(%d)", int(d))
	}
}

// Directions lists the four oriented flow directions in the order of the
// paper's Fig. 11 table.
var Directions = []FlowDirection{LeftToRight, RightToLeft, BottomToTop, TopToBottom}

// AirSinkConfig describes the conventional package. Zero values are replaced
// by HotSpot-like defaults in Defaulted.
type AirSinkConfig struct {
	// TIMThickness is the thermal interface material thickness (m).
	TIMThickness float64
	// SpreaderSide and SpreaderThickness describe the square copper heat
	// spreader (m).
	SpreaderSide, SpreaderThickness float64
	// SinkSide and SinkThickness describe the square copper heatsink base (m).
	SinkSide, SinkThickness float64
	// RConvec is the case-to-ambient convection resistance of the sink (K/W).
	RConvec float64
	// CConvec is the additional convection thermal capacitance (fins plus
	// entrained air mass) lumped with the sink body (J/K).
	CConvec float64
}

// OilConfig describes the IR-imaging cooling setup.
type OilConfig struct {
	// Fluid is the coolant; defaults to materials.MineralOil.
	Fluid materials.Fluid
	// Velocity is the free-stream speed (m/s); default 10 m/s.
	Velocity float64
	// Direction selects the leading edge for the local h(x) model.
	Direction FlowDirection
	// TargetRconv, when positive, uniformly rescales the heat transfer
	// coefficient so the overall convection resistance at the oil-silicon
	// boundary equals this value. The paper uses this to compare AIR-SINK
	// and OIL-SILICON at identical R_conv (Figs. 6, 8, 12).
	TargetRconv float64
	// DisableBoundaryCapacitance drops the oil boundary layer's thermal
	// capacitance (ablation; the paper's eq. 3 includes it).
	DisableBoundaryCapacitance bool
}

// SecondaryPathConfig describes the heat path through the package bottom.
// All layers are modeled per the paper's Fig. 1: interconnect, C4 pads and
// underfill, package substrate, solder balls, PCB, then convection from the
// PCB back side (oil for OIL-SILICON, quiescent case air for AIR-SINK).
type SecondaryPathConfig struct {
	// Enabled turns the secondary path on. The paper shows it is required
	// for OIL-SILICON (Fig. 5a) and negligible for AIR-SINK (Fig. 5b).
	Enabled bool
	// Layer thicknesses (m); zero values take defaults.
	InterconnectThickness float64
	C4Thickness           float64
	SubstrateThickness    float64
	SolderThickness       float64
	PCBThickness          float64
	// SubstrateSide is the square package substrate side (m).
	SubstrateSide float64
	// PCBSide is the square PCB region participating in spreading (m).
	PCBSide float64
	// BacksideRAir is the PCB-to-ambient resistance for AIR-SINK packages
	// (natural convection inside the case), K/W.
	BacksideRAir float64
}

// Config assembles a full model description.
type Config struct {
	Floorplan    *floorplan.Floorplan
	DieThickness float64 // silicon thickness (m); default 0.5 mm
	AmbientK     float64 // ambient (and coolant free-stream) temperature, K

	// LateralConstriction scales the silicon-layer block-to-block lateral
	// resistances above the 1-D centroid estimate. Heat crossing a shared
	// edge of two floorplan blocks constricts through the thin die
	// cross-section near that edge, so the effective resistance exceeds
	// (d_i+d_j)/(k·t·w). The default of 3 is calibrated against the
	// paper's Fig. 9 observation (OIL-SILICON retains its hot spot for
	// >4 ms after a power switch while AIR-SINK migrates). Set to any
	// positive value to override; it is an ablation knob in DESIGN.md.
	LateralConstriction float64

	Package   PackageKind
	Air       AirSinkConfig
	Oil       OilConfig
	Micro     MicrochannelConfig
	Secondary SecondaryPathConfig
}

// Defaulted returns a copy of cfg with zero values replaced by defaults.
// The air-sink defaults follow the HotSpot distribution (60 mm sink,
// 30 mm spreader, 20 µm interface, R_convec = 0.8 K/W, C_convec = 140 J/K);
// the oil defaults follow the paper's validation setup (mineral oil at
// 10 m/s).
func (cfg Config) Defaulted() Config {
	if cfg.DieThickness == 0 {
		cfg.DieThickness = 0.5e-3
	}
	if cfg.AmbientK == 0 {
		cfg.AmbientK = materials.AmbientK
	}
	if cfg.LateralConstriction == 0 {
		cfg.LateralConstriction = 3
	}
	a := &cfg.Air
	if a.TIMThickness == 0 {
		a.TIMThickness = 20e-6
	}
	if a.SpreaderSide == 0 {
		a.SpreaderSide = 30e-3
	}
	if a.SpreaderThickness == 0 {
		a.SpreaderThickness = 1e-3
	}
	if a.SinkSide == 0 {
		a.SinkSide = 60e-3
	}
	if a.SinkThickness == 0 {
		a.SinkThickness = 6.9e-3
	}
	if a.RConvec == 0 {
		a.RConvec = 0.8
	}
	if a.CConvec == 0 {
		a.CConvec = 140.4
	}
	o := &cfg.Oil
	if o.Fluid.Name == "" {
		o.Fluid = materials.MineralOil
	}
	if o.Velocity == 0 {
		o.Velocity = 10
	}
	s := &cfg.Secondary
	if s.InterconnectThickness == 0 {
		s.InterconnectThickness = 10e-6
	}
	if s.C4Thickness == 0 {
		s.C4Thickness = 100e-6
	}
	if s.SubstrateThickness == 0 {
		s.SubstrateThickness = 1.0e-3
	}
	if s.SolderThickness == 0 {
		s.SolderThickness = 0.6e-3
	}
	if s.PCBThickness == 0 {
		s.PCBThickness = 1.6e-3
	}
	if s.SubstrateSide == 0 {
		s.SubstrateSide = 35e-3
	}
	if s.PCBSide == 0 {
		s.PCBSide = 100e-3
	}
	if s.BacksideRAir == 0 {
		s.BacksideRAir = 100
	}
	return cfg
}

// Validate reports configuration errors. Quantities that must be positive
// must also be finite: a NaN or infinite one would build a model whose
// every temperature is NaN, or trip the network's own checks.
func (cfg Config) Validate() error {
	if cfg.Floorplan == nil || cfg.Floorplan.N() == 0 {
		return fmt.Errorf("hotspot: config needs a floorplan")
	}
	if !positiveFinite(cfg.DieThickness) {
		return fmt.Errorf("hotspot: die thickness %g is not positive and finite", cfg.DieThickness)
	}
	if !positiveFinite(cfg.AmbientK) {
		return fmt.Errorf("hotspot: ambient %g K is not positive and finite", cfg.AmbientK)
	}
	if cfg.LateralConstriction < 0 {
		return fmt.Errorf("hotspot: negative lateral constriction")
	}
	switch cfg.Package {
	case AirSink:
		if cfg.Air.SpreaderSide < cfg.Floorplan.Width() || cfg.Air.SpreaderSide < cfg.Floorplan.Height() {
			return fmt.Errorf("hotspot: spreader (%g m) smaller than die", cfg.Air.SpreaderSide)
		}
		if cfg.Air.SinkSide < cfg.Air.SpreaderSide {
			return fmt.Errorf("hotspot: sink (%g m) smaller than spreader (%g m)", cfg.Air.SinkSide, cfg.Air.SpreaderSide)
		}
		if !positiveFinite(cfg.Air.RConvec) {
			return fmt.Errorf("hotspot: R_convec %g is not positive and finite", cfg.Air.RConvec)
		}
	case OilSilicon:
		if !positiveFinite(cfg.Oil.Velocity) {
			return fmt.Errorf("hotspot: oil velocity %g is not positive and finite", cfg.Oil.Velocity)
		}
		if cfg.Oil.TargetRconv < 0 {
			return fmt.Errorf("hotspot: negative target R_conv")
		}
	case Microchannel:
		mc := cfg.Micro.defaulted()
		if !positiveFinite(mc.ChannelWidth) || !positiveFinite(mc.ChannelDepth) || !positiveFinite(mc.WallWidth) {
			return fmt.Errorf("hotspot: invalid microchannel geometry")
		}
	default:
		return fmt.Errorf("hotspot: unknown package kind %d", cfg.Package)
	}
	return nil
}

// positiveFinite reports whether v > 0 and v is finite (false for NaN).
func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }
