package sim

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"pmoctree/internal/core"
)

// TestDropletAllocationSequence pins the slots a droplet run allocates: an
// FNV-64a digest over the ref and code of every octant of each step's
// working version (before Persist, so C0 and C1 handles both count) and
// committed version (after it), in walk order. When allocation state
// reaches the device never decides which slot an allocation gets, so the
// digest is fixed.
func TestDropletAllocationSequence(t *testing.T) {
	const want = 0x979464b5e1e6e09a
	tr := core.Create(core.Config{DRAMBudgetOctants: 512, Seed: 3})
	d := NewDroplet(DropletConfig{Steps: 32})
	tr.SetFeatures(d.Feature(1))
	h := fnv.New64a()
	var b [8]byte
	hash := func(r core.Ref, o *core.Octant) bool {
		binary.LittleEndian.PutUint64(b[:], uint64(r)<<32^uint64(o.Code))
		h.Write(b[:])
		return true
	}
	for s := 1; s <= 30; s++ {
		Step(tr, d, s, 5)
		tr.SetFeatures(d.Feature(s + 1))
		tr.ForEachNode(hash)
		tr.Persist()
		tr.Flush()
		tr.ForEachCommittedNode(hash)
	}
	if got := h.Sum64(); got != want {
		t.Errorf("allocation digest %016x, want %016x", got, uint64(want))
	}
}
