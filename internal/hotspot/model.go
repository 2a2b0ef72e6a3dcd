package hotspot

import (
	"fmt"
	"math"

	"repro/internal/floorplan"
	"repro/internal/materials"
	"repro/internal/rcnet"
)

// Model is a compiled thermal model: a floorplan plus a package mapped onto
// an RC network.
type Model struct {
	cfg    Config
	net    *rcnet.Network
	solver *rcnet.Solver

	// silicon node index per floorplan block
	blockNode []int
	// hBlock is the per-block heat transfer coefficient at the oil-silicon
	// boundary (W/m²K); nil for AIR-SINK.
	hBlock []float64
	// rconvEff is the effective total convection resistance of the primary
	// path (K/W): 1/Σ(h_i·A_i) for oil, RConvec for air.
	rconvEff float64
}

// New builds a model from the configuration (defaults applied, validated).
func New(cfg Config) (*Model, error) {
	cfg = cfg.Defaulted()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{cfg: cfg}
	m.net = rcnet.New(cfg.AmbientK)
	if err := m.build(); err != nil {
		return nil, err
	}
	s, err := m.net.Compile()
	if err != nil {
		return nil, err
	}
	m.solver = s
	return m, nil
}

// Config returns the (defaulted) configuration the model was built with.
func (m *Model) Config() Config { return m.cfg }

// Floorplan returns the model's floorplan.
func (m *Model) Floorplan() *floorplan.Floorplan { return m.cfg.Floorplan }

// NodeCount returns the total number of RC nodes.
func (m *Model) NodeCount() int { return m.net.N() }

// RconvEffective returns the overall equivalent convection thermal
// resistance of the primary heat path (K/W). For OIL-SILICON this is
// 1/(h_L·A_chip) after any TargetRconv rescaling (paper eq. 1); for AIR-SINK
// it is the configured R_convec.
func (m *Model) RconvEffective() float64 { return m.rconvEff }

// BlockH returns the per-block oil heat-transfer coefficients (W/m²K), or
// nil for an AIR-SINK model.
func (m *Model) BlockH() []float64 {
	if m.hBlock == nil {
		return nil
	}
	out := make([]float64, len(m.hBlock))
	copy(out, m.hBlock)
	return out
}

// build assembles the RC network.
func (m *Model) build() error {
	fp := m.cfg.Floorplan
	tSi := m.cfg.DieThickness

	// --- Silicon layer: one node per block with lateral coupling. ---
	m.blockNode = make([]int, fp.N())
	for i, b := range fp.Blocks {
		m.blockNode[i] = m.net.AddNode("si:"+b.Name, materials.SlabCapacitance(materials.Silicon, tSi, b.Area()))
	}
	adj := fp.Adjacencies()
	m.addLateral(adj, m.blockNode, materials.Silicon, tSi, m.cfg.LateralConstriction)

	switch m.cfg.Package {
	case AirSink:
		if err := m.buildAirSink(adj); err != nil {
			return err
		}
	case OilSilicon:
		if err := m.buildOilSilicon(); err != nil {
			return err
		}
	case Microchannel:
		if err := m.buildMicrochannel(); err != nil {
			return err
		}
	}
	if m.cfg.Secondary.Enabled {
		if err := m.buildSecondaryPath(); err != nil {
			return err
		}
	}
	return nil
}

// addLateral connects adjacent block nodes within a layer of the given
// material and thickness. The resistance between neighbours is the series
// combination of each block's half-extent perpendicular to the shared edge,
// scaled by the constriction factor (see Config.LateralConstriction):
// R = constriction · (d_i + d_j) / (k · t · w_shared).
func (m *Model) addLateral(adjs []floorplan.Adjacency, nodes []int, mat materials.Solid, thickness, constriction float64) {
	fp := m.cfg.Floorplan
	for _, adj := range adjs {
		a, b := fp.Blocks[adj.I], fp.Blocks[adj.J]
		var da, db float64
		if adj.Horizontal {
			da, db = a.Width/2, b.Width/2
		} else {
			da, db = a.Height/2, b.Height/2
		}
		r := constriction * (da + db) / (mat.Conductivity * thickness * adj.SharedLen)
		m.net.ConnectR(nodes[adj.I], nodes[adj.J], r)
	}
}

// buildAirSink assembles TIM, spreader (per-block center + 4 peripheral
// nodes), lumped sink body and the convection stage. The spreader's centre
// nodes couple laterally along the die's block adjacencies adj.
func (m *Model) buildAirSink(adj []floorplan.Adjacency) error {
	fp := m.cfg.Floorplan
	a := m.cfg.Air
	tSi := m.cfg.DieThickness

	// TIM layer: per-block nodes (negligible lateral conduction).
	timNode := make([]int, fp.N())
	for i, b := range fp.Blocks {
		timNode[i] = m.net.AddNode("tim:"+b.Name, materials.SlabCapacitance(materials.TIM, a.TIMThickness, b.Area()))
		r := materials.VerticalResistance(materials.Silicon, tSi/2, b.Area()) +
			materials.VerticalResistance(materials.TIM, a.TIMThickness/2, b.Area())
		m.net.ConnectR(m.blockNode[i], timNode[i], r)
	}

	// Spreader center: per-block copper nodes with lateral coupling.
	spNode := make([]int, fp.N())
	for i, b := range fp.Blocks {
		spNode[i] = m.net.AddNode("sp:"+b.Name, materials.SlabCapacitance(materials.Copper, a.SpreaderThickness, b.Area()))
		r := materials.VerticalResistance(materials.TIM, a.TIMThickness/2, b.Area()) +
			materials.VerticalResistance(materials.Copper, a.SpreaderThickness/2, b.Area())
		m.net.ConnectR(timNode[i], spNode[i], r)
	}
	m.addLateral(adj, spNode, materials.Copper, a.SpreaderThickness, 1)

	// Spreader periphery: four trapezoidal copper regions beyond the die.
	ring := (a.SpreaderSide - math.Max(fp.Width(), fp.Height())) / 2
	if ring <= 0 {
		return fmt.Errorf("hotspot: spreader does not extend beyond the die")
	}
	periArea := (a.SpreaderSide*a.SpreaderSide - fp.Width()*fp.Height()) / 4
	periNames := []string{"sp:west", "sp:east", "sp:south", "sp:north"}
	periEdges := []string{"left", "right", "bottom", "top"}
	periNode := make([]int, 4)
	for p := 0; p < 4; p++ {
		periNode[p] = m.net.AddNode(periNames[p], materials.SlabCapacitance(materials.Copper, a.SpreaderThickness, periArea))
		edgeBlocks, err := fp.EdgeBlocks(periEdges[p])
		if err != nil {
			return err
		}
		for _, bi := range edgeBlocks {
			b := fp.Blocks[bi]
			var dBlock, shared float64
			if p < 2 { // west/east: heat flows horizontally
				dBlock, shared = b.Width/2, b.Height
			} else {
				dBlock, shared = b.Height/2, b.Width
			}
			r := (dBlock + ring/2) / (materials.Copper.Conductivity * a.SpreaderThickness * shared)
			m.net.ConnectR(spNode[bi], periNode[p], r)
		}
	}

	// Sink body: a single lumped copper node. The high conductivity of
	// copper keeps the real sink nearly isothermal (paper §4.2), so a
	// lumped body preserves both the lateral spreading and the large
	// thermal capacitance (~250× silicon) that dominates the long-term
	// transient.
	sinkCap := materials.SlabCapacitance(materials.Copper, a.SinkThickness, a.SinkSide*a.SinkSide) + a.CConvec
	sink := m.net.AddNode("sink", sinkCap)
	for i, b := range fp.Blocks {
		r := materials.VerticalResistance(materials.Copper, a.SpreaderThickness/2, b.Area()) +
			materials.VerticalResistance(materials.Copper, a.SinkThickness/2, b.Area())
		m.net.ConnectR(spNode[i], sink, r)
	}
	for p := 0; p < 4; p++ {
		r := materials.VerticalResistance(materials.Copper, a.SpreaderThickness/2, periArea) +
			materials.VerticalResistance(materials.Copper, a.SinkThickness/2, periArea)
		m.net.ConnectR(periNode[p], sink, r)
	}

	// Convection: sink to ambient.
	if !ambientROK(a.RConvec) {
		return fmt.Errorf("hotspot: sink convection resistance %g K/W is out of range", a.RConvec)
	}
	m.net.ConnectAmbientR(sink, a.RConvec)
	m.rconvEff = a.RConvec
	return nil
}

// buildOilSilicon assembles the oil boundary layer over the bare die with
// the flow-direction-dependent local heat transfer coefficient.
func (m *Model) buildOilSilicon() error {
	fp := m.cfg.Floorplan
	o := m.cfg.Oil
	tSi := m.cfg.DieThickness

	plateLen := m.plateLength(o.Direction)
	flow := materials.LaminarFlow{Fluid: o.Fluid, Velocity: o.Velocity, PlateLen: plateLen}
	if err := flow.Validate(); err != nil {
		return err
	}

	// Per-block h from the span along the flow direction (eq. 7-8), or the
	// plate average for Uniform.
	m.hBlock = make([]float64, fp.N())
	for i := range fp.Blocks {
		if o.Direction == Uniform {
			m.hBlock[i] = flow.AvgHeatTransferCoeff()
		} else {
			x1, x2 := m.flowSpan(fp.Blocks[i], o.Direction)
			m.hBlock[i] = flow.SpanHeatTransferCoeff(x1, x2)
		}
	}

	// Effective overall resistance before rescaling: 1/Σ h_i·A_i.
	var hA float64
	for i, b := range fp.Blocks {
		hA += m.hBlock[i] * b.Area()
	}
	natural := 1 / hA
	scale := 1.0
	if o.TargetRconv > 0 {
		scale = natural / o.TargetRconv
		for i := range m.hBlock {
			m.hBlock[i] *= scale
		}
		m.rconvEff = o.TargetRconv
	} else {
		m.rconvEff = natural
	}

	// Boundary-layer thickness and per-block oil capacitance (eq. 3-4).
	delta := flow.BoundaryLayerThickness()
	for i, b := range fp.Blocks {
		rc := 1 / (m.hBlock[i] * b.Area()) // block convection resistance
		var oilCap float64
		if o.DisableBoundaryCapacitance {
			oilCap = 1e-9 // effectively massless, kept positive for the integrator
		} else {
			oilCap = o.Fluid.Density * o.Fluid.SpecificHeat * b.Area() * delta
		}
		if !ambientROK(rc / 2) {
			return fmt.Errorf("hotspot: block %q: oil boundary resistance %g K/W is out of range", b.Name, rc/2)
		}
		oil := m.net.AddNode("oil:"+b.Name, oilCap)
		// Silicon center → boundary layer: half the die conduction plus
		// half the convection resistance; boundary layer → free stream:
		// the other half of the convection resistance. Total silicon-to-
		// ambient resistance is R_si/2 + R_conv as in the paper's Fig. 7b.
		m.net.ConnectR(m.blockNode[i], oil, materials.VerticalResistance(materials.Silicon, tSi/2, b.Area())+rc/2)
		m.net.ConnectAmbientR(oil, rc/2)
	}
	return nil
}

// ambientROK reports whether the network can take r as a resistance to
// ambient: positive, and it and its reciprocal finite. rcnet panics on a
// zero or non-finite conductance, so the builders check each derived
// resistance first and fail with an error: an rconv near 0 or ∞ derives
// one out of range.
func ambientROK(r float64) bool { return positiveFinite(r) && !math.IsInf(1/r, 0) }

// plateLength returns the die extent along the flow direction.
func (m *Model) plateLength(d FlowDirection) float64 {
	switch d {
	case BottomToTop, TopToBottom:
		return m.cfg.Floorplan.Height()
	default:
		return m.cfg.Floorplan.Width()
	}
}

// flowSpan returns the interval [x1, x2] the block occupies along the flow,
// measured from the leading edge.
func (m *Model) flowSpan(b floorplan.Block, d FlowDirection) (float64, float64) {
	minX, minY, maxX, maxY := m.cfg.Floorplan.Bounds()
	switch d {
	case LeftToRight:
		return b.X - minX, b.X + b.Width - minX
	case RightToLeft:
		return maxX - (b.X + b.Width), maxX - b.X
	case BottomToTop:
		return b.Y - minY, b.Y + b.Height - minY
	case TopToBottom:
		return maxY - (b.Y + b.Height), maxY - b.Y
	default:
		panic("hotspot: flowSpan called with uniform direction")
	}
}

// buildSecondaryPath assembles interconnect → C4/underfill → substrate →
// solder balls → PCB → back-side cooling, per the paper's Fig. 1.
func (m *Model) buildSecondaryPath() error {
	fp := m.cfg.Floorplan
	s := m.cfg.Secondary
	tSi := m.cfg.DieThickness
	dieArea := fp.TotalArea()

	// Interconnect and C4 layers: per-block nodes.
	icxNode := make([]int, fp.N())
	c4Node := make([]int, fp.N())
	for i, b := range fp.Blocks {
		icxNode[i] = m.net.AddNode("icx:"+b.Name, materials.SlabCapacitance(materials.Interconnect, s.InterconnectThickness, b.Area()))
		r := materials.VerticalResistance(materials.Silicon, tSi/2, b.Area()) +
			materials.VerticalResistance(materials.Interconnect, s.InterconnectThickness/2, b.Area())
		m.net.ConnectR(m.blockNode[i], icxNode[i], r)

		c4Node[i] = m.net.AddNode("c4:"+b.Name, materials.SlabCapacitance(materials.C4Underfill, s.C4Thickness, b.Area()))
		r = materials.VerticalResistance(materials.Interconnect, s.InterconnectThickness/2, b.Area()) +
			materials.VerticalResistance(materials.C4Underfill, s.C4Thickness/2, b.Area())
		m.net.ConnectR(icxNode[i], c4Node[i], r)
	}

	// Package substrate: lumped (organic substrates spread laterally well
	// relative to their thinness, and the die covers a large fraction).
	subArea := s.SubstrateSide * s.SubstrateSide
	sub := m.net.AddNode("substrate", materials.SlabCapacitance(materials.Substrate, s.SubstrateThickness, subArea))
	for i, b := range fp.Blocks {
		r := materials.VerticalResistance(materials.C4Underfill, s.C4Thickness/2, b.Area()) +
			materials.VerticalResistance(materials.Substrate, s.SubstrateThickness/2, b.Area())
		m.net.ConnectR(c4Node[i], sub, r)
	}

	// Solder ball field under the substrate.
	solder := m.net.AddNode("solder", materials.SlabCapacitance(materials.SolderBalls, s.SolderThickness, subArea))
	m.net.ConnectR(sub, solder,
		materials.VerticalResistance(materials.Substrate, s.SubstrateThickness/2, subArea)+
			materials.VerticalResistance(materials.SolderBalls, s.SolderThickness/2, subArea))

	// PCB and back-side cooling. The board acts as a fin: heat enters at
	// the package footprint, spreads laterally while convecting from the
	// back side. The fin decay length 1/m with m = sqrt(h/(k·t)) limits the
	// board area that effectively participates, so the convection area is
	// clamped to (s_pkg + 2/m)² (full board if larger).
	switch m.cfg.Package {
	case OilSilicon:
		// The oil bathes the PCB under side too (paper Fig. 1): same
		// free-stream velocity over the PCB-length plate.
		o := m.cfg.Oil
		flow := materials.LaminarFlow{Fluid: o.Fluid, Velocity: o.Velocity, PlateLen: s.PCBSide}
		if err := flow.Validate(); err != nil {
			return fmt.Errorf("hotspot: back-side oil flow: %w", err)
		}
		hPCB := flow.AvgHeatTransferCoeff()
		finM := math.Sqrt(hPCB / (materials.PCB.Conductivity * s.PCBThickness))
		effSide := math.Min(s.PCBSide, s.SubstrateSide+2/finM)
		effArea := effSide * effSide
		pcb := m.net.AddNode("pcb", materials.SlabCapacitance(materials.PCB, s.PCBThickness, effArea))
		// Radial spreading from the package footprint to the effective
		// convection perimeter.
		rSpread := (effSide - s.SubstrateSide) / 2 /
			(materials.PCB.Conductivity * s.PCBThickness * 2 * math.Pi * (effSide + s.SubstrateSide) / 4)
		m.net.ConnectR(solder, pcb,
			materials.VerticalResistance(materials.SolderBalls, s.SolderThickness/2, subArea)+
				materials.VerticalResistance(materials.PCB, s.PCBThickness/2, subArea)+rSpread)
		rc := 1 / (hPCB * effArea)
		if !ambientROK(rc / 2) {
			return fmt.Errorf("hotspot: back-side oil resistance %g K/W is out of range", rc/2)
		}
		oil := m.net.AddNode("oil:pcb", flow.ConvectionCapacitance(effArea))
		m.net.ConnectR(pcb, oil, rc/2)
		m.net.ConnectAmbientR(oil, rc/2)
	case AirSink:
		// Quiescent air inside the case: a large natural-convection
		// resistance, which is why the secondary path barely matters for
		// AIR-SINK (paper Fig. 5b).
		pcbArea := s.PCBSide * s.PCBSide
		pcb := m.net.AddNode("pcb", materials.SlabCapacitance(materials.PCB, s.PCBThickness, pcbArea))
		m.net.ConnectR(solder, pcb,
			materials.VerticalResistance(materials.SolderBalls, s.SolderThickness/2, subArea)+
				materials.VerticalResistance(materials.PCB, s.PCBThickness/2, subArea))
		if !ambientROK(s.BacksideRAir) {
			return fmt.Errorf("hotspot: back-side air resistance %g K/W is out of range", s.BacksideRAir)
		}
		m.net.ConnectAmbientR(pcb, s.BacksideRAir)
	}
	_ = dieArea
	return nil
}
