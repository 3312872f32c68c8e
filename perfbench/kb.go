package main

import (
	"math"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/grounding"
	"repro/internal/stats"
	"repro/internal/storage"
)

// Atom is one queryable ground atom of a generated knowledge base with its
// generated truth.
type Atom struct {
	ID       int64
	Loc      geom.Point
	Truth    bool
	Evidence bool
}

// Vals are the atom's key values in the variable relation.
func (a Atom) Vals() []storage.Value {
	return []storage.Value{storage.Int(a.ID), storage.Geom(a.Loc)}
}

// KB is one generated knowledge base: the program, the rows the program
// receives, and the truth the benchmark checks scores against.
type KB struct {
	Program  string
	Input    string // input relation
	Evidence string // evidence relation
	Var      string // variable relation
	Inputs   []storage.Row
	Rows     []storage.Row // evidence rows
	Atoms    []Atom
	Config   core.Config
}

// EvidenceRow is the single-row upsert that pins a's generated truth.
func (k *KB) EvidenceRow(a Atom) storage.Row {
	return storage.Row{storage.Int(a.ID), storage.Geom(a.Loc), storage.Bool(a.Truth)}
}

// Key is the atom's grounding key.
func (k *KB) Key(a Atom) string { return grounding.AtomKey(k.Var, a.Vals()) }

// byKey indexes the atoms by grounding key.
func (k *KB) byKey() map[string]Atom {
	out := make(map[string]Atom, len(k.Atoms))
	for _, a := range k.Atoms {
		out[k.Key(a)] = a
	}
	return out
}

// gwdbReach is the longest distance a GWDB rule joins over (R10's 80). It
// exceeds the spatial support radius, and sampling a conclique's cells in
// parallel is order-independent only when cells are at least this wide.
const gwdbReach = 80

// localityFor picks the deepest pyramid level whose cell width still covers
// the interaction radius.
func localityFor(extent, radius float64, levels int) int {
	l := 2
	for l+1 <= levels-1 && extent/float64(int(1)<<(l+1)) >= radius {
		l++
	}
	return l
}

// tileGrid lays tiles out in a square grid with the given gap between
// them, so no rule or spatial factor reaches across a gap.
type tileGrid struct {
	tiles        int
	extent, gap  float64
	inputs, rows []storage.Row
	atoms        []Atom
}

// add appends one generated tile: its atoms and its rows, whose first two
// columns are the atom key (id, location), re-numbered and moved into the
// tile's grid cell.
func (g *tileGrid) add(i int, atoms []Atom, inputs, evidence []storage.Row) {
	cols := int(math.Ceil(math.Sqrt(float64(g.tiles))))
	dx := float64(i%cols) * (g.extent + g.gap)
	dy := float64(i/cols) * (g.extent + g.gap)
	base := int64(len(g.atoms))
	move := func(rows []storage.Row) []storage.Row {
		for _, r := range rows {
			p := r[1].G.(geom.Point)
			r[0] = storage.Int(base + r[0].I)
			r[1] = storage.Geom(geom.Pt(p.X+dx, p.Y+dy))
		}
		return rows
	}
	for _, a := range atoms {
		a.ID += base
		a.Loc = geom.Pt(a.Loc.X+dx, a.Loc.Y+dy)
		g.atoms = append(g.atoms, a)
	}
	g.inputs = append(g.inputs, move(inputs)...)
	g.rows = append(g.rows, move(evidence)...)
}

// span is the side of the whole grid.
func (g *tileGrid) span() float64 {
	cols := math.Ceil(math.Sqrt(float64(g.tiles)))
	return cols*(g.extent+g.gap) - g.gap
}

// tileSeed derives tile i's generator seed from the run seed.
func tileSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// GWDB generates n synthetic wells as `tiles` independently generated GWDB
// regions of n/tiles wells each, at the harness's constant well density and
// default knobs, laid out side by side. A run's figures then average over
// many independent regions instead of hinging on one random field, while
// table sizes, and with them the cost of whole-table joins such as R10's
// aquifer equi-join, stay those of n wells.
func GWDB(n, tiles int, seed int64, epochs int) *KB {
	p := bench.DefaultParams()
	per := n / tiles
	g := &tileGrid{tiles: tiles, extent: 600 * math.Sqrt(float64(per)/600), gap: 2 * p.SupportRadius}
	for i := 0; i < tiles; i++ {
		data := datagen.Wells(datagen.WellsConfig{N: per, Seed: tileSeed(seed, i), Extent: g.extent})
		var atoms []Atom
		for _, w := range data.Wells {
			atoms = append(atoms, Atom{ID: w.ID, Loc: w.Loc, Truth: w.Safe, Evidence: w.IsEvidence})
		}
		wells, evidence := data.Rows()
		g.add(i, atoms, wells, evidence)
	}
	k := &KB{Program: datagen.GWDBProgram, Input: "Well", Evidence: "WellEvidence", Var: "IsSafe",
		Inputs: g.inputs, Rows: g.rows, Atoms: g.atoms}
	k.Config = core.Config{
		Engine:           core.EngineSya,
		Metric:           geom.Euclidean,
		Bandwidth:        p.Bandwidth,
		SpatialScale:     p.SpatialScale,
		SupportRadius:    p.SupportRadius,
		MaxNeighbors:     p.MaxNeighbors,
		PyramidLevels:    p.PyramidLevels,
		LocalityLevel:    localityFor(g.span(), max(p.SupportRadius, gwdbReach), p.PyramidLevels),
		Instances:        p.Instances,
		Epochs:           epochs,
		Seed:             seed,
		SkipFactorTables: true,
	}
	return k
}

// NYCCAS generates `tiles` independently generated side×side pollution
// rasters at the harness's constant cell size, laid out side by side.
func NYCCAS(side, tiles int, seed int64, epochs, shards int) *KB {
	p := bench.DefaultParams()
	extent := float64(side) * 30.0 / 22.0
	cell := extent / float64(side)
	g := &tileGrid{tiles: tiles, extent: extent, gap: 2 * 4 * cell}
	for i := 0; i < tiles; i++ {
		data := datagen.Raster(datagen.RasterConfig{Side: side, Seed: tileSeed(seed, i) + 1, Extent: extent})
		var atoms []Atom
		for _, c := range data.Cells {
			atoms = append(atoms, Atom{ID: c.ID, Loc: c.Loc, Truth: c.Polluted, Evidence: c.IsEvidence})
		}
		cells, evidence := data.Rows()
		g.add(i, atoms, cells, evidence)
	}
	k := &KB{Program: datagen.NYCCASProgram, Input: "Cell", Evidence: "CellEvidence", Var: "Polluted",
		Inputs: g.inputs, Rows: g.rows, Atoms: g.atoms}
	k.Config = core.Config{
		Engine:           core.EngineSya,
		Metric:           geom.Euclidean,
		Bandwidth:        2 * cell,
		SpatialScale:     p.SpatialScale,
		SupportRadius:    4 * cell,
		MaxNeighbors:     p.MaxNeighbors,
		PyramidLevels:    p.PyramidLevels,
		LocalityLevel:    localityFor(g.span(), 4*cell, p.PyramidLevels),
		Instances:        p.Instances,
		Epochs:           epochs,
		Seed:             seed,
		Shards:           shards,
		SkipFactorTables: true,
	}
	return k
}

// F1 scores the non-evidence atoms against their generated truth with the
// evaluation's default tolerance; score returns an atom's factual score.
func (k *KB) F1(score func(Atom) (float64, bool)) float64 {
	var ex []stats.Example
	for _, a := range k.Atoms {
		if a.Evidence {
			continue
		}
		p, ok := score(a)
		if !ok {
			continue
		}
		truth := 0.0
		if a.Truth {
			truth = 1
		}
		ex = append(ex, stats.Example{Score: p, Truth: stats.Point(truth), HasTruth: true})
	}
	return stats.Evaluate(ex, stats.DefaultOptions()).F1
}
