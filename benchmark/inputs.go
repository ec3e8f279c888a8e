package main

import (
	"math"
	"math/rand"
	"net/url"
	"strconv"

	"pmoctree/internal/core"
	"pmoctree/internal/morton"
	"pmoctree/internal/parallel"
	"pmoctree/internal/serve"
	"pmoctree/internal/sim"
)

type leafData = [core.DataWords]float64

// leafSet is a Z-ordered leaf partition with payloads, the input of
// Tree.ConstructFromCodes.
type leafSet struct {
	codes []morton.Code
	data  []leafData
}

// inputs is everything a run feeds the program, made before any timing
// starts. The meshes are the workload's own and the same on every seed, so
// that the device counts of a workload are one number; the seed draws every
// query point and box.
type inputs struct {
	field   sim.Field                  // droplet workloads: the interface model
	liquid  func(x, y, z float64) bool // kindFlow: initial liquid indicator
	initial leafSet                    // the initial mesh every pass constructs
	sets    []leafSet                  // kindIngest: the leaf sets a step ingests, in turn
	queries []query
}

// captureMesh satisfies sim's bulk-construction contract and keeps the leaf
// set sim.ConstructInitial derives instead of building a tree from it.
type captureMesh struct{ got leafSet }

func (*captureMesh) RefineWhere(func(morton.Code) bool, uint8) int          { return 0 }
func (*captureMesh) CoarsenWhere(func(morton.Code) bool) int                { return 0 }
func (*captureMesh) Balance() int                                           { return 0 }
func (*captureMesh) UpdateLeaves(func(morton.Code, *leafData) bool) int     { return 0 }
func (*captureMesh) LeafCount() int                                         { return 1 }
func (*captureMesh) ForEachLeaf(func(code morton.Code, data leafData) bool) {}
func (c *captureMesh) ConstructFromCodes(codes []morton.Code, data [][core.DataWords]float64, _ *parallel.Pool, _ bool) (int, error) {
	c.got = leafSet{codes, data}
	return len(codes), nil
}

// dropletLeaves is the balanced, solved mesh of field at step.
func dropletLeaves(f sim.Field, step int, maxLevel uint8, pool *parallel.Pool) leafSet {
	var c captureMesh
	sim.ConstructInitial(&c, f, step, maxLevel, pool)
	return c.got
}

func makeInputs(sp spec, seed int64, pool *parallel.Pool) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	switch sp.kind {
	case kindFlow:
		// cmd/flow's "drop" initial condition: a sphere above a shallow pool.
		const r, cx, cy, cz = 0.15, 0.5, 0.5, 0.7
		in.liquid = func(x, y, z float64) bool {
			dx, dy, dz := x-cx, y-cy, z-cz
			return dx*dx+dy*dy+dz*dz < r*r || z < 0.15
		}
		t := core.Create(core.Config{})
		t.RefineWhere(func(c morton.Code) bool {
			x, y, z := c.Center()
			h := c.Extent()
			return in.liquid(x, y, z) || in.liquid(x+h, y, z) || in.liquid(x-h, y, z) ||
				in.liquid(x, y, z+h) || in.liquid(x, y, z-h)
		}, sp.maxLevel)
		t.Balance()
		in.initial.codes = t.LeafCodes()
		in.initial.data = make([]leafData, len(in.initial.codes))
	default:
		cfg := sim.DropletConfig{Steps: sp.dropletSteps}.Defaults()
		in.field = sim.NewDroplet(cfg)
		in.initial = dropletLeaves(in.field, sp.startStep, sp.maxLevel, pool)
		for _, s := range sp.setSteps {
			in.sets = append(in.sets, dropletLeaves(in.field, s, sp.maxLevel, pool))
		}
	}
	in.queries = makeQueries(rng, sp, in.initial.codes)
	return in
}

const (
	classPoint = iota
	classRegion
	classAgg
)

var classNames = [...]string{"point", "region", "agg"}

type query struct {
	class int
	p     [3]float64
	box   serve.Box
	field int
}

// makeQueries draws the closed-loop mix: 60 % point, 25 % region, 15 %
// aggregate. Box edges are counted in finest cells and drawn log-uniformly
// between the spec's limits — a continuous size distribution, so that the p90
// of the latencies does not sit on the jump between two box sizes — which for
// the level-7 droplet is 1/32..1/8 of the domain for regions and 1/32..1/2
// for aggregates. Half of the queries are placed uniformly in the domain and
// mostly land in the coarse far field; the other half aim at a finest-level
// leaf of the initial mesh, where the interface is and an analysis client
// looks.
func makeQueries(rng *rand.Rand, sp spec, leaves []morton.Code) []query {
	var fine []morton.Code
	for _, c := range leaves {
		if c.Level() == sp.maxLevel {
			fine = append(fine, c)
		}
	}
	cell := 1 / float64(uint(1)<<sp.maxLevel)
	// centre is where a query aims: anywhere, or inside a random fine leaf.
	centre := func() (p [3]float64) {
		if len(fine) > 0 && rng.Intn(2) == 0 {
			x, y, z := fine[rng.Intn(len(fine))].Center()
			return [3]float64{x + (rng.Float64()-0.5)*cell, y + (rng.Float64()-0.5)*cell, z + (rng.Float64()-0.5)*cell}
		}
		return [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	box := func(cells [2]float64) (b serve.Box) {
		edge := cell * cells[0] * math.Pow(cells[1]/cells[0], rng.Float64())
		if edge > 1 {
			edge = 1
		}
		c := centre()
		for d := 0; d < 3; d++ {
			lo := c[d] - edge/2
			if lo < 0 {
				lo = 0
			}
			if lo > 1-edge {
				lo = 1 - edge
			}
			b.Min[d], b.Max[d] = lo, lo+edge
			if b.Max[d] > 1 {
				b.Max[d] = 1
			}
		}
		return b
	}
	n := sp.leadInQ + sp.queries
	if n < sp.ladderQueries {
		n = sp.ladderQueries
	}
	qs := make([]query, n)
	for i := range qs {
		q := &qs[i]
		switch u := rng.Float64(); {
		case u < 0.60:
			q.class = classPoint
			q.p = centre()
		case u < 0.85:
			q.class = classRegion
			q.box = box(sp.regionCells)
		default:
			q.class = classAgg
			q.box = box(sp.aggCells)
			q.field = [...]int{0, 1, 3}[rng.Intn(3)]
		}
	}
	return qs
}

func fstr(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// path is the request the HTTP surfaces of serve and router both accept.
// version 0 asks for the newest published version.
func (q query) path(version uint64) string {
	v := url.Values{}
	if version != 0 {
		v.Set("version", strconv.FormatUint(version, 10))
	}
	switch q.class {
	case classPoint:
		v.Set("x", fstr(q.p[0]))
		v.Set("y", fstr(q.p[1]))
		v.Set("z", fstr(q.p[2]))
		return "/v1/point?" + v.Encode()
	case classAgg:
		v.Set("field", strconv.Itoa(q.field))
	}
	for d, n := range [...]string{"x", "y", "z"} {
		v.Set(n+"0", fstr(q.box.Min[d]))
		v.Set(n+"1", fstr(q.box.Max[d]))
	}
	if q.class == classAgg {
		return "/v1/agg?" + v.Encode()
	}
	return "/v1/region?" + v.Encode()
}
