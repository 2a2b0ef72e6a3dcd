package hotspot

import (
	"fmt"
	"math"

	"repro/internal/materials"
)

// MicrochannelConfig describes integrated microchannel liquid cooling
// (Koo et al., cited in the paper's §2.1 cooling taxonomy): parallel
// channels etched into the die back side carrying a forced coolant. For
// fully developed laminar flow in a channel the Nusselt number is a
// constant, so h = Nu·k/D_h independent of position — microchannels have no
// flow-direction hot-spot artifact, only a modest downstream caloric rise
// which this compact model folds into the effective resistance.
type MicrochannelConfig struct {
	// Coolant defaults to water-like properties.
	Coolant materials.Fluid
	// ChannelWidth and ChannelDepth set the rectangular channel section (m).
	ChannelWidth, ChannelDepth float64
	// WallWidth is the fin wall between channels (m).
	WallWidth float64
	// Nu is the laminar fully-developed Nusselt number (default 4.36,
	// constant-heat-flux circular-duct value).
	Nu float64
	// FinEfficiency derates the channel side-wall area (0..1, default 0.7).
	FinEfficiency float64
}

// Water is a convenient coolant for microchannel configurations.
var Water = materials.Fluid{
	Name:         "water",
	Conductivity: 0.6,
	Density:      998,
	SpecificHeat: 4180,
	KinViscosity: 1.0e-6,
}

func (mc MicrochannelConfig) defaulted() MicrochannelConfig {
	if mc.Coolant.Name == "" {
		mc.Coolant = Water
	}
	if mc.ChannelWidth == 0 {
		mc.ChannelWidth = 100e-6
	}
	if mc.ChannelDepth == 0 {
		mc.ChannelDepth = 300e-6
	}
	if mc.WallWidth == 0 {
		mc.WallWidth = 100e-6
	}
	if mc.Nu == 0 {
		mc.Nu = 4.36
	}
	if mc.FinEfficiency == 0 {
		mc.FinEfficiency = 0.7
	}
	return mc
}

// HeatTransferCoeff returns the effective heat transfer coefficient
// referenced to the die footprint area: the in-channel coefficient
// h_ch = Nu·k/D_h scaled by the wetted-area-per-footprint ratio.
func (mc MicrochannelConfig) HeatTransferCoeff() float64 {
	mc = mc.defaulted()
	w, d := mc.ChannelWidth, mc.ChannelDepth
	dh := 2 * w * d / (w + d) // hydraulic diameter of a rectangular duct
	hCh := mc.Nu * mc.Coolant.Conductivity / dh
	// Per channel pitch (w + wall): wetted perimeter contributing = channel
	// floor w + two side walls derated by fin efficiency.
	pitch := w + mc.WallWidth
	areaRatio := (w + 2*d*mc.FinEfficiency) / pitch
	return hCh * areaRatio
}

// buildMicrochannel attaches per-block microchannel cooling directly to the
// silicon nodes. The coolant volume in the channels above each block
// provides the (small) boundary thermal capacitance.
func (m *Model) buildMicrochannel() error {
	mc := m.cfg.Micro.defaulted()
	if mc.ChannelWidth <= 0 || mc.ChannelDepth <= 0 || mc.WallWidth <= 0 {
		return fmt.Errorf("hotspot: invalid microchannel geometry")
	}
	h := mc.HeatTransferCoeff()
	fp := m.cfg.Floorplan
	tSi := m.cfg.DieThickness

	m.hBlock = make([]float64, fp.N())
	var hA float64
	for i, b := range fp.Blocks {
		m.hBlock[i] = h
		hA += h * b.Area()
	}
	m.rconvEff = 1 / hA

	pitch := mc.ChannelWidth + mc.WallWidth
	fillFactor := mc.ChannelWidth * mc.ChannelDepth / (pitch * mc.ChannelDepth) // channel volume share
	for i, b := range fp.Blocks {
		rc := 1 / (h * b.Area())
		coolantVol := b.Area() * mc.ChannelDepth * fillFactor
		cap := mc.Coolant.Density * mc.Coolant.SpecificHeat * coolantVol
		if !ambientROK(rc / 2) {
			return fmt.Errorf("hotspot: block %q: channel resistance %g K/W is out of range", b.Name, rc/2)
		}
		node := m.net.AddNode("chan:"+b.Name, math.Max(cap, 1e-9))
		m.net.ConnectR(m.blockNode[i], node,
			materials.VerticalResistance(materials.Silicon, tSi/2, b.Area())+rc/2)
		m.net.ConnectAmbientR(node, rc/2)
	}
	return nil
}
