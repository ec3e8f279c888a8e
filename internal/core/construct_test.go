package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"pmoctree/internal/bulk"
	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/parallel"
	"pmoctree/internal/sim"
)

// constructDigest hashes (code, data) of every working-version octant in
// pre-order — the same walk internal/fault's chaos digests use, local here
// because core cannot import fault.
func constructDigest(t *Tree) uint64 {
	h := fnv.New64a()
	var b [8]byte
	t.ForEachNode(func(_ Ref, o *Octant) bool {
		binary.LittleEndian.PutUint64(b[:], uint64(o.Code))
		h.Write(b[:])
		for _, v := range o.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		return true
	})
	return h.Sum64()
}

// constructPayload is a deterministic per-leaf field payload, a pure
// function of the code so refine+UpdateLeaves and ConstructFromCodes can
// agree without sharing state.
func constructPayload(c morton.Code) (d [DataWords]float64) {
	x, y, z := c.Center()
	d[0] = x + 2*y + 3*z
	d[1] = float64(c.Level()) + 0.25
	d[2] = x * y * z
	d[3] = z - x
	return d
}

// refTreeShell builds the reference tree the slow way: incremental refine
// over a spherical shell, balance, per-leaf payloads, persist.
func refTreeShell(maxLevel uint8) *Tree {
	tr := Create(Config{})
	tr.RefineWhere(sphere(0.5, 0.5, 0.5, 0.3, 0.05), maxLevel)
	tr.Balance()
	tr.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
		*d = constructPayload(c)
		return true
	})
	tr.Persist()
	return tr
}

// TestConstructDigestEqualsRefine is the acceptance test: a tree
// constructed in bulk from a leaf set is bit-identical (digest equality)
// to the same leaf set built by incremental refine + UpdateLeaves, at any
// worker count, including forced-width pools.
func TestConstructDigestEqualsRefine(t *testing.T) {
	ref := refTreeShell(5)
	want := constructDigest(ref)
	codes := ref.LeafCodes()
	data := make([][DataWords]float64, len(codes))
	for i, c := range codes {
		data[i] = constructPayload(c)
	}
	pools := map[string]*parallel.Pool{
		"nil":     nil,
		"w1":      parallel.New(1),
		"w2":      parallel.New(2),
		"w4":      parallel.New(4),
		"w7":      parallel.New(7),
		"forced4": parallel.NewForced(4),
		"forced7": parallel.NewForced(7),
	}
	for name, pool := range pools {
		t.Run(name, func(t *testing.T) {
			tr := Create(Config{})
			nn, err := tr.ConstructFromCodes(codes, data, pool, false)
			if err != nil {
				t.Fatal(err)
			}
			if nn != ref.NodeCount() {
				t.Fatalf("node count %d, want %d", nn, ref.NodeCount())
			}
			if got := constructDigest(tr); got != want {
				t.Fatalf("pre-persist digest %#x, want %#x", got, want)
			}
			tr.Persist()
			if got := constructDigest(tr); got != want {
				t.Fatalf("post-persist digest %#x, want %#x", got, want)
			}
			if tr.CommittedStep() != ref.CommittedStep() {
				t.Fatalf("committed step %d, want %d", tr.CommittedStep(), ref.CommittedStep())
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			if !tr.IsBalanced() {
				t.Fatal("constructed tree not 2:1 balanced")
			}
		})
	}
}

// TestConstructBalanceMatchesCore feeds an UNBALANCED leaf set through
// ConstructFromCodes with balance enforcement on and requires the result
// to match refine + core Balance of the same set.
func TestConstructBalanceMatchesCore(t *testing.T) {
	// Refine the chain of octants containing (0.49, 0.49, 0.49): deep
	// leaves hug the domain-center planes, face-adjacent to untouched
	// level-1 leaves, so the raw leaf set violates 2:1.
	chain := containing(0.49, 0.49, 0.49)
	raw := Create(Config{})
	raw.RefineWhere(chain, 6)
	if raw.IsBalanced() {
		t.Fatal("test input is unexpectedly balanced")
	}
	input := raw.LeafCodes()

	ref := Create(Config{})
	ref.RefineWhere(chain, 6)
	ref.Balance()
	ref.Persist()
	want := constructDigest(ref)

	tr := Create(Config{})
	if _, err := tr.ConstructFromCodes(input, nil, parallel.New(4), true); err != nil {
		t.Fatal(err)
	}
	tr.Persist()
	if got := constructDigest(tr); got != want {
		t.Fatalf("balanced construct digest %#x, want %#x", got, want)
	}
	if !tr.IsBalanced() {
		t.Fatal("constructed tree not balanced")
	}
}

// TestConstructContinuesStepping proves the constructed tree is a drop-in
// replacement going forward: identical mutations on both trees keep the
// digests locked together across further refine/update/persist rounds.
func TestConstructContinuesStepping(t *testing.T) {
	ref := refTreeShell(4)
	codes := ref.LeafCodes()
	data := make([][DataWords]float64, len(codes))
	for i, c := range codes {
		data[i] = constructPayload(c)
	}
	tr := Create(Config{})
	if _, err := tr.ConstructFromCodes(codes, data, nil, false); err != nil {
		t.Fatal(err)
	}
	tr.Persist()
	for round := 0; round < 3; round++ {
		for _, x := range []*Tree{ref, tr} {
			x.RefineWhere(sphere(0.5, 0.5, 0.5, 0.3, 0.02), 5)
			x.Balance()
			x.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
				d[0] += float64(round) + 1
				return true
			})
			x.Persist()
		}
		if a, b := constructDigest(ref), constructDigest(tr); a != b {
			t.Fatalf("round %d: digests diverged %#x vs %#x", round, a, b)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConstructStateAndInputErrors covers the typed error paths: construct
// on a dirty working version, payload length mismatch, and bulk validation
// errors surfacing unwrapped — all leaving the tree untouched.
func TestConstructStateAndInputErrors(t *testing.T) {
	tr := Create(Config{})
	tr.RefineWhere(func(morton.Code) bool { return true }, 1)
	var se *ConstructStateError
	if _, err := tr.ConstructFromCodes([]morton.Code{morton.Root}, nil, nil, false); !errors.As(err, &se) {
		t.Fatalf("dirty-tree construct: got %v, want ConstructStateError", err)
	}
	if err := tr.AdvanceStepTo(9); !errors.As(err, &se) {
		t.Fatalf("dirty-tree advance: got %v, want ConstructStateError", err)
	}
	tr.Persist()

	if _, err := tr.ConstructFromCodes([]morton.Code{morton.Root}, make([][DataWords]float64, 2), nil, false); err == nil {
		t.Fatal("payload length mismatch not rejected")
	}

	before := constructDigest(tr)
	nodes := tr.NodeCount()
	var dup *bulk.DuplicateCodeError
	c := morton.Root.Child(0)
	if _, err := tr.ConstructFromCodes([]morton.Code{c, c}, nil, nil, false); !errors.As(err, &dup) {
		t.Fatalf("duplicate input: got %v, want DuplicateCodeError", err)
	}
	var ov *bulk.OverlapError
	if _, err := tr.ConstructFromCodes([]morton.Code{morton.Root, c}, nil, nil, false); !errors.As(err, &ov) {
		t.Fatalf("overlapping input: got %v, want OverlapError", err)
	}
	if constructDigest(tr) != before || tr.NodeCount() != nodes {
		t.Fatal("failed construct mutated the tree")
	}
	tr.RefineWhere(func(morton.Code) bool { return true }, 2)
	tr.Persist()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAdvanceStepTo: forward fast-forward sticks through construct+persist
// (the shard-materialization contract); rewinding is refused.
func TestAdvanceStepTo(t *testing.T) {
	tr := Create(Config{})
	if err := tr.AdvanceStepTo(7); err != nil {
		t.Fatal(err)
	}
	if tr.Step() != 7 {
		t.Fatalf("Step = %d, want 7", tr.Step())
	}
	if err := tr.AdvanceStepTo(3); err == nil {
		t.Fatal("rewind not refused")
	}
	if _, err := tr.ConstructFromCodes([]morton.Code{morton.Root}, nil, nil, false); err != nil {
		t.Fatal(err)
	}
	tr.Persist()
	if tr.CommittedStep() != 7 {
		t.Fatalf("CommittedStep = %d, want 7", tr.CommittedStep())
	}
}

// TestConstructPersistSkipsMerge: the persist after a clean construct
// makes no merge read — the constructed version is all NVBM and C0 holds
// nothing, so the merge visits no octant — and a mutation between
// construct and persist still lands in the committed image.
func TestConstructPersistSkipsMerge(t *testing.T) {
	ref := refTreeShell(5)
	codes := ref.LeafCodes()
	data := make([][DataWords]float64, len(codes))
	for i, c := range codes {
		data[i] = constructPayload(c)
	}

	tr := Create(Config{})
	if _, err := tr.ConstructFromCodes(codes, data, nil, false); err != nil {
		t.Fatal(err)
	}
	reads := func() uint64 { return tr.NVBMDevice().Stats().Reads + tr.DRAMDevice().Stats().Reads }
	merged := -1
	tr.mergeOracle = func(t *Tree, r Ref) Ref {
		r0 := reads()
		nr := t.moveToNVBMUnder(r, morton.Root)
		merged = int(reads() - r0)
		return nr
	}
	root := tr.Root()
	tr.Persist()
	if merged != 0 {
		t.Fatalf("the merge after a clean construct read %d records or fields, want 0", merged)
	}
	if tr.CommittedRoot() != root {
		t.Fatalf("the merge moved the constructed root %v to %v", root, tr.CommittedRoot())
	}

	// A mutation between construct and persist reaches the committed
	// image.
	tr2 := Create(Config{})
	if _, err := tr2.ConstructFromCodes(codes, data, nil, false); err != nil {
		t.Fatal(err)
	}
	tr2.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
		d[3] = 99
		return true
	})
	tr2.Persist()
	found := false
	tr2.ForEachCommittedNode(func(_ Ref, o *Octant) bool {
		if o.IsLeaf() && o.Data[3] != 99 {
			t.Fatalf("leaf %v missed the update", o.Code)
		}
		found = found || o.IsLeaf()
		return true
	})
	if !found {
		t.Fatal("committed walk saw no leaves")
	}
	if err := tr2.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConstructPrefillsFastPath: the first LeafTiles after construction
// must be free — the leaf index filled, tiled and stamped valid.
func TestConstructPrefillsFastPath(t *testing.T) {
	ref := refTreeShell(4)
	codes := ref.LeafCodes()
	data := make([][DataWords]float64, len(codes))
	for i, c := range codes {
		data[i] = constructPayload(c)
	}
	tr := Create(Config{})
	if _, err := tr.ConstructFromCodes(codes, data, nil, false); err != nil {
		t.Fatal(err)
	}
	rebuilds := tr.fp.TileRebuilds
	reuses := tr.fp.TileReuses
	st := tr.LeafTiles()
	if tr.fp.TileRebuilds != rebuilds || tr.fp.TileReuses != reuses+1 {
		t.Fatalf("first LeafTiles not free: rebuilds %d->%d reuses %d->%d",
			rebuilds, tr.fp.TileRebuilds, reuses, tr.fp.TileReuses)
	}
	if st.N() != len(codes) {
		t.Fatalf("tile store holds %d cells, want %d", st.N(), len(codes))
	}
	for i, c := range codes {
		if st.Codes()[i] != c {
			t.Fatalf("tile cell %d code mismatch", i)
		}
		if got, want := st.Load(i), constructPayload(c); got != want {
			t.Fatalf("tile cell %d = %v, want %v", i, got, want)
		}
	}
	if tr.fp.LeafIndexRebuilds != 0 {
		t.Fatalf("the filled index was rebuilt %d times", tr.fp.LeafIndexRebuilds)
	}
}

// TestConstructRestore: a constructed+persisted arena reopens exactly like
// a refined one — same digest, valid invariants, and stepping continues.
func TestConstructRestore(t *testing.T) {
	nv := nvbm.New(nvbm.NVBM, 0)
	ref := refTreeShell(5)
	codes := ref.LeafCodes()
	data := make([][DataWords]float64, len(codes))
	for i, c := range codes {
		data[i] = constructPayload(c)
	}
	tr := Create(Config{NVBMDevice: nv})
	if _, err := tr.ConstructFromCodes(codes, data, parallel.New(4), false); err != nil {
		t.Fatal(err)
	}
	tr.Persist()
	want := constructDigest(tr)

	restored, err := Restore(Config{NVBMDevice: nv})
	if err != nil {
		t.Fatal(err)
	}
	if got := constructDigest(restored); got != want {
		t.Fatalf("restored digest %#x, want %#x", got, want)
	}
	if err := restored.Validate(); err != nil {
		t.Fatal(err)
	}
	restored.RefineWhere(sphere(0.5, 0.5, 0.5, 0.3, 0.02), 6)
	restored.Balance()
	restored.Persist()
	if err := restored.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConstructReusesFreedSpace ingests droplet leaf sets into one arena,
// sixteen construct + persist + GC cycles over four sets in turn, as a
// bulk ingest does, with 0 and 2 retained versions. GC frees what each
// replaced version held, and the next construct's run takes that space
// first fit, so after two rounds of the sets neither the high water nor
// the device grows; every committed digest equals a fresh construct's of
// the same set.
func TestConstructReusesFreedSpace(t *testing.T) {
	const maxLevel, cycles, warmup = 6, 16, 8
	d := sim.NewDroplet(sim.DropletConfig{Steps: 40})
	type leafSet struct {
		codes  []morton.Code
		data   [][DataWords]float64
		digest uint64
	}
	var sets []leafSet
	for _, step := range []int{8, 24, 16, 32} {
		fresh := Create(Config{})
		if _, ok := sim.ConstructInitial(fresh, d, step, maxLevel, nil); !ok {
			t.Fatal("ConstructInitial declined a fresh tree")
		}
		fresh.Persist()
		s := leafSet{digest: constructDigest(fresh)}
		fresh.ForEachLeaf(func(c morton.Code, data [DataWords]float64) bool {
			s.codes = append(s.codes, c)
			s.data = append(s.data, data)
			return true
		})
		sets = append(sets, s)
	}
	for _, retain := range []int{0, 2} {
		t.Run(fmt.Sprintf("retain=%d", retain), func(t *testing.T) {
			nv := nvbm.New(nvbm.NVBM, 0)
			tr := Create(Config{NVBMDevice: nv, RetainVersions: retain})
			var hw uint32
			var size int
			for c := 0; c < cycles; c++ {
				s := sets[c%len(sets)]
				if _, err := tr.ConstructFromCodes(s.codes, s.data, nil, false); err != nil {
					t.Fatal(err)
				}
				tr.Persist()
				if got := constructDigest(tr); got != s.digest {
					t.Fatalf("cycle %d: committed digest %#x, a fresh construct's %#x", c, got, s.digest)
				}
				if c >= warmup && (tr.nv.HighWater() != hw || nv.Size() != size) {
					t.Fatalf("cycle %d: high water %d -> %d, device %d -> %d bytes after warm-up",
						c, hw, tr.nv.HighWater(), size, nv.Size())
				}
				hw, size = tr.nv.HighWater(), nv.Size()
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
