// Package materials holds the solid and fluid thermal properties and the
// convection correlations used throughout the reproduction. The correlations
// implement equations (1)-(4), (7) and (8) of Huang et al. (ISPASS 2009):
// laminar forced convection over a smooth flat plate, the thermal
// boundary-layer thickness, and the resulting convection resistances and
// capacitances of the IR-transparent oil flow.
package materials

import (
	"fmt"
	"math"
)

// Solid describes an isotropic solid material.
type Solid struct {
	Name string
	// Conductivity is the thermal conductivity k in W/(m·K).
	Conductivity float64
	// VolHeatCap is the volumetric heat capacity ρ·c_p in J/(m³·K).
	VolHeatCap float64
}

// Standard solids. The silicon and copper values match those used by the
// HotSpot distribution (k_Si = 100 W/mK at operating temperature, which is
// what reproduces the paper's quoted R_th,Si = 0.0125 K/W for a
// 20×20×0.5 mm die).
var (
	Silicon = Solid{Name: "silicon", Conductivity: 100, VolHeatCap: 1.75e6}
	Copper  = Solid{Name: "copper", Conductivity: 400, VolHeatCap: 3.55e6}
	// TIM is the thermal interface material between die and spreader.
	TIM = Solid{Name: "tim", Conductivity: 4, VolHeatCap: 4.0e6}
	// Interconnect is the effective property of the on-chip metal/dielectric
	// stack (first element of the secondary heat-transfer path).
	Interconnect = Solid{Name: "interconnect", Conductivity: 2.25, VolHeatCap: 2.0e6}
	// C4Underfill is the flip-chip bump array plus underfill epoxy.
	C4Underfill = Solid{Name: "c4-underfill", Conductivity: 0.8, VolHeatCap: 2.2e6}
	// Substrate is an organic flip-chip package substrate.
	Substrate = Solid{Name: "substrate", Conductivity: 15, VolHeatCap: 1.9e6}
	// SolderBalls is the effective property of the BGA ball field.
	SolderBalls = Solid{Name: "solder", Conductivity: 5, VolHeatCap: 1.6e6}
	// PCB is an FR4 printed-circuit board with copper planes.
	PCB = Solid{Name: "pcb", Conductivity: 8, VolHeatCap: 1.8e6}
)

// Fluid describes a convective coolant.
type Fluid struct {
	Name string
	// Conductivity k in W/(m·K).
	Conductivity float64
	// Density ρ in kg/m³.
	Density float64
	// SpecificHeat c_p in J/(kg·K).
	SpecificHeat float64
	// KinViscosity ν in m²/s.
	KinViscosity float64
}

// Prandtl returns the Prandtl number Pr = ν·ρ·c_p / k.
func (f Fluid) Prandtl() float64 {
	return f.KinViscosity * f.Density * f.SpecificHeat / f.Conductivity
}

// Reynolds returns the Reynolds number Re_x = V·x/ν at position x along the
// flow for free-stream velocity v.
func (f Fluid) Reynolds(v, x float64) float64 { return v * x / f.KinViscosity }

// MineralOil is the IR-transparent oil used for infrared thermal imaging
// (Mesa-Martinez et al., ISCA 2007). The kinematic viscosity is chosen so
// that a 10 m/s flow over a 20 mm die yields the paper's quoted overall
// convection resistance R_conv ≈ 1.042 K/W (§4.1.2).
var MineralOil = Fluid{
	Name:         "mineral-oil",
	Conductivity: 0.13,
	Density:      870,
	SpecificHeat: 1900,
	KinViscosity: 4.42e-5,
}

// AmbientK is the default ambient temperature used by the models (Kelvin).
// The paper's Fig. 12 experiments use 45 °C; earlier experiments use a
// generic ambient around this value.
const AmbientK = 318.15 // 45 °C

// KelvinOffset converts between Celsius and Kelvin.
const KelvinOffset = 273.15

// CToK converts Celsius to Kelvin.
func CToK(c float64) float64 { return c + KelvinOffset }

// KToC converts Kelvin to Celsius.
func KToC(k float64) float64 { return k - KelvinOffset }

// LaminarFlow captures a laminar flat-plate flow configuration of a given
// fluid over a plate of length plateLen (measured along the flow) at
// velocity v.
type LaminarFlow struct {
	Fluid    Fluid
	Velocity float64 // free-stream velocity V, m/s
	PlateLen float64 // plate length L along the flow, m
}

// Validate reports configuration errors and whether the flow is outside the
// laminar flat-plate regime (Re_L > 5·10^5 is the usual transition
// criterion; the paper's setups stay well inside it).
func (lf LaminarFlow) Validate() error {
	if lf.Velocity <= 0 {
		return fmt.Errorf("materials: non-positive flow velocity %g", lf.Velocity)
	}
	if lf.PlateLen <= 0 {
		return fmt.Errorf("materials: non-positive plate length %g", lf.PlateLen)
	}
	if lf.Fluid.KinViscosity <= 0 || lf.Fluid.Conductivity <= 0 {
		return fmt.Errorf("materials: fluid %q has non-positive properties", lf.Fluid.Name)
	}
	if re := lf.Fluid.Reynolds(lf.Velocity, lf.PlateLen); re > 5e5 {
		return fmt.Errorf("materials: Re_L = %.3g exceeds laminar transition (5e5)", re)
	}
	return nil
}

// AvgHeatTransferCoeff returns the equivalent overall heat transfer
// coefficient h_L for laminar flow over a smooth flat surface
// (paper eq. 2):
//
//	h_L = 0.664 · (k/L) · Re_L^0.5 · Pr^(1/3)
func (lf LaminarFlow) AvgHeatTransferCoeff() float64 {
	re := lf.Fluid.Reynolds(lf.Velocity, lf.PlateLen)
	pr := lf.Fluid.Prandtl()
	return 0.664 * lf.Fluid.Conductivity / lf.PlateLen * math.Sqrt(re) * math.Cbrt(pr)
}

// LocalHeatTransferCoeff returns the local coefficient h(x) at distance x
// from the leading edge (paper eq. 8):
//
//	h(x) = 0.332 · (k/x) · Re_x^0.5 · Pr^(1/3)
//
// h(x) diverges at the leading edge; callers should use SpanHeatTransferCoeff
// to average over a finite extent instead of sampling x → 0.
func (lf LaminarFlow) LocalHeatTransferCoeff(x float64) float64 {
	if x <= 0 {
		return math.Inf(1)
	}
	re := lf.Fluid.Reynolds(lf.Velocity, x)
	pr := lf.Fluid.Prandtl()
	return 0.332 * lf.Fluid.Conductivity / x * math.Sqrt(re) * math.Cbrt(pr)
}

// SpanHeatTransferCoeff returns the average of h(x) over the span
// [x1, x2] measured from the leading edge:
//
//	h̄ = (1/(x2−x1)) ∫ h(x) dx
//	  = 0.664 · k · Pr^(1/3) · sqrt(V/ν) · (√x2 − √x1)/(x2 − x1)
//
// It is finite even when x1 = 0 and reduces to AvgHeatTransferCoeff for the
// full plate [0, L].
func (lf LaminarFlow) SpanHeatTransferCoeff(x1, x2 float64) float64 {
	if x2 <= x1 {
		panic(fmt.Sprintf("materials: invalid span [%g, %g]", x1, x2))
	}
	if x1 < 0 {
		x1 = 0
	}
	pr := lf.Fluid.Prandtl()
	c := 0.664 * lf.Fluid.Conductivity * math.Cbrt(pr) * math.Sqrt(lf.Velocity/lf.Fluid.KinViscosity)
	return c * (math.Sqrt(x2) - math.Sqrt(x1)) / (x2 - x1)
}

// ConvectionResistance returns the overall convection thermal resistance at
// the fluid-solid boundary for wetted area a (paper eq. 1):
//
//	R_conv = 1 / (h_L · A)
func (lf LaminarFlow) ConvectionResistance(a float64) float64 {
	return 1 / (lf.AvgHeatTransferCoeff() * a)
}

// BoundaryLayerThickness returns the thermal boundary-layer thickness δt at
// the end of the plate (paper eq. 4):
//
//	δt = 4.91·L / (Pr^(1/3) · sqrt(Re_L))
func (lf LaminarFlow) BoundaryLayerThickness() float64 {
	re := lf.Fluid.Reynolds(lf.Velocity, lf.PlateLen)
	pr := lf.Fluid.Prandtl()
	return 4.91 * lf.PlateLen / (math.Cbrt(pr) * math.Sqrt(re))
}

// ConvectionCapacitance returns the overall effective thermal capacitance of
// the oil boundary layer over wetted area a (paper eq. 3):
//
//	C_conv = ρ · c_p · A · δt
func (lf LaminarFlow) ConvectionCapacitance(a float64) float64 {
	return lf.Fluid.Density * lf.Fluid.SpecificHeat * a * lf.BoundaryLayerThickness()
}

// VerticalResistance returns the 1-D conduction resistance of a solid slab
// of the given thickness and cross-sectional area: R = t/(k·A).
func VerticalResistance(s Solid, thickness, area float64) float64 {
	if thickness <= 0 || area <= 0 {
		panic(fmt.Sprintf("materials: invalid slab %g m × %g m²", thickness, area))
	}
	return thickness / (s.Conductivity * area)
}

// SlabCapacitance returns the lumped thermal capacitance of a solid slab:
// C = ρ·c_p · t · A.
func SlabCapacitance(s Solid, thickness, area float64) float64 {
	if thickness <= 0 || area <= 0 {
		panic(fmt.Sprintf("materials: invalid slab %g m × %g m²", thickness, area))
	}
	return s.VolHeatCap * thickness * area
}
