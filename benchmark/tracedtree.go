package main

import (
	"pmoctree/internal/core"
	"pmoctree/internal/morton"
	"pmoctree/internal/parallel"
	"pmoctree/internal/sim"
	"pmoctree/internal/tile"
)

// mesh is what a pass calls on the tree it steps: *core.Tree in the untraced
// passes, *tracedTree in the traced one.
type mesh interface {
	sim.Mesh
	LeafTiles() *tile.Store
	ScatterLeafTiles(*tile.Store) int
	ConstructFromCodes(codes []morton.Code, data [][core.DataWords]float64, pool *parallel.Pool, balance bool) (int, error)
	SetFeatures(fs ...core.Feature)
	Persist() int
}

// tracedTree records a span around every call sim, fluid's commit and the
// lifecycle make into core. It embeds *core.Tree, so sim's optional-interface
// assertions (tiled, indexed, constructing mesh) still hold and the fast
// paths still run; the embedded methods it does not shadow pass through.
//
// sim hands core its predicates and kernels as callbacks, which core runs
// inside its own traversal. Their time is summed per call and recorded as
// one "sim.callback" child, so it counts as sim's and not as core's.
type tracedTree struct {
	*core.Tree
	tr *tracer
}

func (t *tracedTree) withPred(name string, pred func(morton.Code) bool, call func(func(morton.Code) bool) int) int {
	defer t.tr.start(name).end()
	start, total := t.tr.now(), int64(0)
	n := call(func(c morton.Code) bool {
		t0 := t.tr.now()
		r := pred(c)
		total += t.tr.now() - t0
		return r
	})
	t.tr.addCallbacks("sim.callback", start, total)
	return n
}

func (t *tracedTree) withKernel(name string, fn func(morton.Code, *leafData) bool, call func(func(morton.Code, *leafData) bool) int) int {
	defer t.tr.start(name).end()
	start, total := t.tr.now(), int64(0)
	n := call(func(c morton.Code, d *leafData) bool {
		t0 := t.tr.now()
		r := fn(c, d)
		total += t.tr.now() - t0
		return r
	})
	t.tr.addCallbacks("sim.callback", start, total)
	return n
}

func (t *tracedTree) RefineWhere(pred func(morton.Code) bool, maxLevel uint8) int {
	return t.withPred("core.refine", pred, func(p func(morton.Code) bool) int { return t.Tree.RefineWhere(p, maxLevel) })
}

func (t *tracedTree) CoarsenWhere(pred func(morton.Code) bool) int {
	return t.withPred("core.coarsen", pred, t.Tree.CoarsenWhere)
}

func (t *tracedTree) Balance() int {
	defer t.tr.start("core.balance").end()
	return t.Tree.Balance()
}

func (t *tracedTree) UpdateLeaves(fn func(morton.Code, *leafData) bool) int {
	return t.withKernel("core.update", fn, t.Tree.UpdateLeaves)
}

func (t *tracedTree) UpdateLeavesIndexed(fn func(morton.Code, *leafData) bool) int {
	return t.withKernel("core.update", fn, t.Tree.UpdateLeavesIndexed)
}

func (t *tracedTree) LeafTiles() *tile.Store {
	defer t.tr.start("core.gather").end()
	return t.Tree.LeafTiles()
}

func (t *tracedTree) ScatterLeafTiles(st *tile.Store) int {
	defer t.tr.start("core.scatter").end()
	return t.Tree.ScatterLeafTiles(st)
}

func (t *tracedTree) ConstructFromCodes(codes []morton.Code, data [][core.DataWords]float64, pool *parallel.Pool, balance bool) (int, error) {
	defer t.tr.start("core.construct").end()
	return t.Tree.ConstructFromCodes(codes, data, pool, balance)
}

func (t *tracedTree) Persist() int {
	defer t.tr.start("core.persist").end()
	return t.Tree.Persist()
}
