package service

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/floorplan"
	"repro/internal/hotspot"
)

// The steady, transient, sweep and invert replies are encoded straight from
// the solver's value slices (DESIGN.md §5.6). Each reply writes exactly the
// bytes encoding/json writes for its exported response type: block maps in
// encoding/json's key order with its escaping, floats in its format. A
// reply holding NaN or ±Inf, which encoding/json refuses, is encoded as its
// exported type instead, so it fails as it always has.

// reply is a 200 body the server encodes itself. appendJSON appends what
// encoding/json's Encoder writes for exported(), trailing newline included;
// exported builds the response type for the values appendJSON refuses.
type reply interface {
	appendJSON(w *jsonWriter)
	exported() any
}

// blockIndex is a compiled model's block names prepared for encoding, built
// once per cache entry.
type blockIndex struct {
	names  []string // floorplan order
	quoted []string // each name as encoding/json quotes it, floorplan order
	order  []int    // floorplan indices in encoding/json's map-key order
}

func newBlockIndex(fp *floorplan.Floorplan) *blockIndex {
	names := fp.Names()
	ix := &blockIndex{names: names, quoted: make([]string, len(names)), order: make([]int, len(names))}
	for i, n := range names {
		ix.quoted[i] = string(appendString(nil, n))
		ix.order[i] = i
	}
	// encoding/json sorts map keys by their raw bytes, before escaping.
	slices.SortFunc(ix.order, func(a, b int) int { return strings.Compare(names[a], names[b]) })
	return ix
}

// blockMap zips the block names with per-block values: the exported form
// of a block map. A nil vals stays a nil map, which omitempty drops.
func (ix *blockIndex) blockMap(vals []float64) map[string]float64 {
	if vals == nil {
		return nil
	}
	out := make(map[string]float64, len(ix.names))
	for i, n := range ix.names {
		out[n] = vals[i]
	}
	return out
}

// jsonWriter appends a reply's JSON. bad records a value encoding/json
// refuses; the bytes are then discarded.
type jsonWriter struct {
	b   []byte
	bad bool
}

func (w *jsonWriter) raw(s string) { w.b = append(w.b, s...) }

func (w *jsonWriter) int(v int64) { w.b = strconv.AppendInt(w.b, v, 10) }

func (w *jsonWriter) str(s string) { w.b = appendString(w.b, s) }

// float appends v as encoding/json writes a float64: 'f' format, or 'e'
// below 1e-6 or from 1e21 in magnitude with e-0N shortened to e-N.
func (w *jsonWriter) float(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		w.bad = true
		return
	}
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, v, format, -1, 64)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

// floats appends a []float64 as encoding/json does: null when nil.
func (w *jsonWriter) floats(vs []float64) {
	if vs == nil {
		w.raw("null")
		return
	}
	w.b = append(w.b, '[')
	for i, v := range vs {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.float(v)
	}
	w.b = append(w.b, ']')
}

// blockMap appends per-block values (floorplan order) as the JSON object
// encoding/json writes for ix.blockMap(vals).
func (w *jsonWriter) blockMap(ix *blockIndex, vals []float64) {
	w.b = append(w.b, '{')
	for k, i := range ix.order {
		if k > 0 {
			w.b = append(w.b, ',')
		}
		w.b = append(w.b, ix.quoted[i]...)
		w.b = append(w.b, ':')
		w.float(vals[i])
	}
	w.b = append(w.b, '}')
}

// appendString appends s quoted as encoding/json quotes it. A string with
// nothing to escape (the usual block name) is copied as is; any other goes
// through json.Marshal, encoding/json's own escaping.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// steadyReply is a SteadyResponse.
type steadyReply struct {
	ix       *blockIndex
	blockC   []float64
	hottest  int // floorplan index of the hottest block
	hottestC float64
	spreadC  float64
	cache    string
	solveMS  float64
}

func (r *steadyReply) appendJSON(w *jsonWriter) {
	w.raw(`{"block_c":`)
	w.blockMap(r.ix, r.blockC)
	w.raw(`,"hottest_block":`)
	w.raw(r.ix.quoted[r.hottest])
	w.raw(`,"hottest_c":`)
	w.float(r.hottestC)
	w.raw(`,"spread_c":`)
	w.float(r.spreadC)
	w.raw(`,"cache":`)
	w.str(r.cache)
	w.raw(`,"solve_ms":`)
	w.float(r.solveMS)
	w.raw("}\n")
}

func (r *steadyReply) exported() any {
	return SteadyResponse{
		BlockC:       r.ix.blockMap(r.blockC),
		HottestBlock: r.ix.names[r.hottest],
		HottestC:     r.hottestC,
		SpreadC:      r.spreadC,
		Cache:        r.cache,
		SolveMS:      r.solveMS,
	}
}

// transientReply is a TransientResponse.
type transientReply struct {
	ix             *blockIndex
	points         []hotspot.TracePoint // the returned, strided series
	final, peak    []float64
	steps          int
	cache          string
	solveMS        float64
	persist        string
	persistedRows  int64
	persistPending bool
}

func (r *transientReply) appendJSON(w *jsonWriter) {
	w.raw(`{"blocks":[`)
	for i, q := range r.ix.quoted {
		if i > 0 {
			w.raw(",")
		}
		w.raw(q)
	}
	w.raw(`],"points":[`)
	for i, p := range r.points {
		if i > 0 {
			w.raw(",")
		}
		w.raw(`{"t":`)
		w.float(p.Time)
		w.raw(`,"block_c":`)
		w.floats(p.BlockC)
		w.raw("}")
	}
	w.raw(`],"final_c":`)
	w.blockMap(r.ix, r.final)
	w.raw(`,"peak_c":`)
	w.blockMap(r.ix, r.peak)
	w.raw(`,"steps":`)
	w.int(int64(r.steps))
	w.raw(`,"cache":`)
	w.str(r.cache)
	w.raw(`,"solve_ms":`)
	w.float(r.solveMS)
	if r.persist != "" {
		w.raw(`,"persist":`)
		w.str(r.persist)
	}
	if r.persistedRows != 0 {
		w.raw(`,"persisted_rows":`)
		w.int(r.persistedRows)
	}
	if r.persistPending {
		w.raw(`,"persist_pending":true`)
	}
	w.raw("}\n")
}

func (r *transientReply) exported() any {
	out := TransientResponse{
		Blocks:         r.ix.names,
		Points:         make([]PointJSON, len(r.points)),
		FinalC:         r.ix.blockMap(r.final),
		PeakC:          r.ix.blockMap(r.peak),
		Steps:          r.steps,
		Cache:          r.cache,
		SolveMS:        r.solveMS,
		Persist:        r.persist,
		PersistedRows:  r.persistedRows,
		PersistPending: r.persistPending,
	}
	for i, p := range r.points {
		out.Points[i] = PointJSON{TimeS: p.Time, BlockC: p.BlockC}
	}
	return out
}

// sweepReply is a SweepResponse.
type sweepReply struct {
	results []sweepResult
	solveMS float64
}

// sweepResult is a SweepResult: blockC and peakC are nil when absent.
type sweepResult struct {
	ix            *blockIndex
	blockC, peakC []float64
	cache, err    string
}

func (r *sweepReply) appendJSON(w *jsonWriter) {
	w.raw(`{"results":[`)
	for i := range r.results {
		if i > 0 {
			w.raw(",")
		}
		r.results[i].appendJSON(w)
	}
	w.raw(`],"solve_ms":`)
	w.float(r.solveMS)
	w.raw("}\n")
}

// appendJSON writes the result's fields that omitempty keeps.
func (r *sweepResult) appendJSON(w *jsonWriter) {
	sep := byte('{')
	key := func(k string) {
		w.b = append(w.b, sep)
		w.raw(k)
		sep = ','
	}
	if r.blockC != nil {
		key(`"block_c":`)
		w.blockMap(r.ix, r.blockC)
	}
	if r.peakC != nil {
		key(`"peak_c":`)
		w.blockMap(r.ix, r.peakC)
	}
	if r.cache != "" {
		key(`"cache":`)
		w.str(r.cache)
	}
	if r.err != "" {
		key(`"error":`)
		w.str(r.err)
	}
	if sep == '{' {
		w.raw("{")
	}
	w.raw("}")
}

func (r *sweepReply) exported() any {
	out := SweepResponse{Results: make([]SweepResult, len(r.results)), SolveMS: r.solveMS}
	for i, res := range r.results {
		out.Results[i] = SweepResult{Cache: res.cache, Error: res.err}
		if res.ix != nil {
			out.Results[i].BlockC = res.ix.blockMap(res.blockC)
			out.Results[i].PeakC = res.ix.blockMap(res.peakC)
		}
	}
	return out
}

// invertReply is an InvertResponse.
type invertReply struct {
	ix      *blockIndex
	powerW  []float64
	totalW  float64
	cache   string
	solveMS float64
}

func (r *invertReply) appendJSON(w *jsonWriter) {
	w.raw(`{"power_w":`)
	w.blockMap(r.ix, r.powerW)
	w.raw(`,"total_w":`)
	w.float(r.totalW)
	w.raw(`,"cache":`)
	w.str(r.cache)
	w.raw(`,"solve_ms":`)
	w.float(r.solveMS)
	w.raw("}\n")
}

func (r *invertReply) exported() any {
	return InvertResponse{
		PowerW:  r.ix.blockMap(r.powerW),
		TotalW:  r.totalW,
		Cache:   r.cache,
		SolveMS: r.solveMS,
	}
}
