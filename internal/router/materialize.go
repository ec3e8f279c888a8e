package router

import (
	"fmt"

	"pmoctree/internal/bulk"
	"pmoctree/internal/core"
	"pmoctree/internal/morton"
	"pmoctree/internal/parallel"
	"pmoctree/internal/serve"
)

// MaterializeStats reports what a shard materialization kept and filled.
type MaterializeStats struct {
	Kept    int // source leaves whose cells intersect the span
	Fillers int // zero-payload cover octants tiling the rest of the domain
	Nodes   int // total octants in the constructed shard tree
}

// MaterializeShard builds a per-shard tree holding only one Z-order key
// span of src's data: a fresh tree on cfg's devices (cfg.NVBMDevice
// receives the shard arena) with src's committed version materialized
// into it by MaterializeInto.
func MaterializeShard(src *core.Tree, span serve.KeyRange, cfg core.Config, pool *parallel.Pool) (*core.Tree, MaterializeStats, error) {
	dst := core.Create(cfg)
	st, err := MaterializeInto(dst, src, span, pool)
	if err != nil {
		dst.Close()
		return nil, st, err
	}
	return dst, st, nil
}

// MaterializeInto commits src's committed version of one Z-order key span
// into dst as a new version: every source leaf whose cell range
// intersects the span's cells (this includes a leaf straddling each span
// boundary, which keeps the zero-payload fillers' keys strictly outside
// the span — a router's span-filtered scatter to the shard never meets a
// filler), with the rest of the domain tiled by the minimal zero-payload
// complement cover (internal/bulk), marked as fillers. The version is a
// valid complete octree constructed in one bulk allocation and committed
// at src's committed step, so per-shard catalogs stay version-consistent
// with the full arena; its device footprint scales with the span's share
// of the data, not the whole mesh. A writer that materializes every
// commit into the same dst keeps a shard arena that advances with the
// source, its earlier versions retained and reclaimed as any tree's are.
//
// src must be at a step boundary with at least one committed version (a
// freshly restored serving tree is), and dst at a step boundary behind
// src's committed step. Bulk validation failures return the typed bulk
// errors (*bulk.OverlapError, ...) unwrapped.
func MaterializeInto(dst, src *core.Tree, span serve.KeyRange, pool *parallel.Pool) (MaterializeStats, error) {
	var st MaterializeStats
	if src.CommittedStep() < 1 {
		return st, fmt.Errorf("router: materialize source has no committed steps")
	}
	if src.Root() != src.CommittedRoot() {
		return st, fmt.Errorf("router: materialize source has uncommitted mutations")
	}
	cellLo := span.Lo >> 6
	cellHi := span.Hi >> 6
	if max := uint64(1)<<(3*morton.MaxLevel) - 1; cellHi > max {
		cellHi = max
	}
	var codes []morton.Code
	var data [][core.DataWords]float64
	src.ForEachLeaf(func(c morton.Code, d [core.DataWords]float64) bool {
		a := uint64(c) >> 6
		v := uint64(1) << (3 * (morton.MaxLevel - c.Level()))
		if a+v > cellLo && a <= cellHi {
			codes = append(codes, c)
			data = append(data, d)
		}
		return true
	})
	fillers := bulk.ComplementCover(codes)
	st.Kept, st.Fillers = len(codes), len(fillers)

	all := make([]morton.Code, 0, len(codes)+len(fillers))
	all = append(append(all, codes...), fillers...)
	allData := make([][core.DataWords]float64, len(all))
	copy(allData, data)

	if err := dst.AdvanceStepTo(src.CommittedStep()); err != nil {
		return st, err
	}
	// No balance pass: the span's fine leaves legitimately abut coarse
	// fillers, and queries only need a complete octree, not a graded one.
	// The fillers carry core.FlagFiller, so serving refuses to answer from
	// them (serve.ErrNotHeld).
	nn, err := dst.ConstructWithFillers(all, allData, len(codes), pool)
	if err != nil {
		return st, err
	}
	st.Nodes = nn
	dst.Persist()
	return st, nil
}
