package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
)

// The whole-tree walks RefineWhere and CoarsenWhere replaced, kept as the
// oracle the key-space versions are held to (FuzzRefineCoarsen). Each walk
// reads every octant and re-emits the leaf index as it goes.

// refineWhereWalk is RefineWhere by refineWalk.
func (t *Tree) refineWhereWalk(pred func(morton.Code) bool, maxLevel uint8) int {
	before := t.stats.Refines
	t.beginIndexEmit()
	nr, _ := t.refineWalk(t.cur, pred, maxLevel)
	t.cur = nr
	t.endIndexEmit()
	t.maybeEvict()
	t.maybeGC()
	return t.stats.Refines - before
}

// coarsenWhereWalk is CoarsenWhere by coarsenWalk.
func (t *Tree) coarsenWhereWalk(pred func(morton.Code) bool) int {
	before := t.stats.Coarsens
	t.beginIndexEmit()
	nr, _, _ := t.coarsenWalk(t.cur, pred)
	t.cur = nr
	t.endIndexEmit()
	t.maybeEvict()
	t.maybeGC()
	return t.stats.Coarsens - before
}

// refineWalk recursively refines; returns the (possibly copied) ref and
// whether it changed. It visits every leaf of the result in Z-order and
// emits it into the leaf index.
func (t *Tree) refineWalk(r Ref, pred func(morton.Code) bool, maxLevel uint8) (Ref, bool) {
	o := t.readOct(r)
	if o.IsLeaf() {
		if o.Code.Level() >= maxLevel || !pred(o.Code) {
			t.emitLeaf(&o)
			return r, false
		}
		nr := t.splitLeaf(r, &o)
		// The fresh children may refine further; they are working-version
		// octants, so their refs cannot change.
		for _, c := range o.Children {
			t.refineWalk(c, pred, maxLevel)
		}
		return nr, nr != r
	}
	changed := false
	for i, c := range o.Children {
		if c.IsNil() {
			continue
		}
		nc, chg := t.refineWalk(c, pred, maxLevel)
		if chg {
			o.Children[i] = nc
			changed = true
		}
	}
	if !changed {
		return r, false
	}
	if t.inPlace(r, &o) {
		t.writeChildren(r, &o)
		return r, false
	}
	nr := t.commitOctant(r, &o)
	return nr, true
}

// coarsenWalk returns (ref, refChanged, isLeafNow). It visits every leaf in
// Z-order and emits the result's leaves into the leaf index: a collapse
// finds its eight children as the last eight entries and replaces them by
// the parent.
func (t *Tree) coarsenWalk(r Ref, pred func(morton.Code) bool) (Ref, bool, bool) {
	o := t.readOct(r)
	if o.IsLeaf() {
		t.emitLeaf(&o)
		return r, false, true
	}
	childrenChanged := false
	allLeaves := true
	for i, c := range o.Children {
		if c.IsNil() {
			continue
		}
		nc, chg, leaf := t.coarsenWalk(c, pred)
		if chg {
			o.Children[i] = nc
			childrenChanged = true
		}
		if !leaf {
			allLeaves = false
		}
	}
	if allLeaves && pred(o.Code) {
		t.mergeChildren(&o)
		if t.leafCount > 0 {
			t.leafCount -= 7
		}
		t.idx.Truncate(t.idx.N() - 8)
		t.emitLeaf(&o)
		nr := t.commitOctant(r, &o)
		return nr, nr != r, true
	}
	if !childrenChanged {
		return r, false, false
	}
	if t.inPlace(r, &o) {
		t.writeChildren(r, &o)
		return r, false, false
	}
	nr := t.commitOctant(r, &o)
	return nr, true, false
}

// rcMix is a seeded hash of a code, the source of the random predicates.
func rcMix(c morton.Code, salt uint64) uint64 {
	x := uint64(c) ^ salt
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// rcPair drives one tree through RefineWhere and CoarsenWhere and its twin
// through the walk oracle, holding them to each other after every
// operation.
type rcPair struct {
	t         testing.TB
	got, want *Tree
	rng       *rand.Rand
	at        string // the running operation, for failure messages
}

func newRCPair(t testing.TB, conf Config, seed int64) *rcPair {
	p := &rcPair{t: t, rng: rand.New(rand.NewSource(seed))}
	build := func() *Tree {
		c := conf
		c.NVBMDevice, c.DRAMDevice = nvbm.New(nvbm.NVBM, 0), nvbm.New(nvbm.DRAM, 0)
		return Create(c)
	}
	p.got, p.want = build(), build()
	return p
}

// release lands both trees' allocation bitmaps, so no landing falls
// inside a measured operation.
func (p *rcPair) release() {
	p.got.Flush()
	p.want.Flush()
}

func (p *rcPair) close() {
	p.release()
	p.got.Close()
	p.want.Close()
}

func (p *rcPair) fatalf(format string, args ...any) {
	p.t.Helper()
	p.t.Fatalf(p.at+": "+format, args...)
}

// rcOps names the operations of FuzzRefineCoarsen's byte script.
var rcOps = [...]string{"refine ball", "refine hash", "coarsen hash", "coarsen outside ball", "update", "persist", "balance"}

// op runs operation code with argument arg on both trees.
func (p *rcPair) op(code, arg byte) {
	salt := p.rng.Uint64()
	x, y, z, r := p.rng.Float64(), p.rng.Float64(), p.rng.Float64(), 0.05+0.3*p.rng.Float64()
	ball := sphere(x, y, z, r, 0.03)
	k := uint64(2 + arg%5)
	switch int(code) % len(rcOps) {
	case 0: // recursive refinement to maxLevel along a sphere
		p.refine(ball, 2+arg%4)
	case 1: // sparse random splits
		p.refine(func(c morton.Code) bool { return rcMix(c, salt)%k == 0 }, 2+arg%3)
	case 2: // random collapses, cascading; every parent when arg%8 == 0
		p.coarsen(func(c morton.Code) bool { return arg%8 == 0 || rcMix(c, salt)%k != 0 })
	case 3: // every group away from a sphere, cascading
		p.coarsen(func(c morton.Code) bool { return !ball(c) && c.Level() >= arg%3 })
	case 4:
		for _, tr := range []*Tree{p.got, p.want} {
			tr.UpdateLeavesIndexed(func(c morton.Code, d *[DataWords]float64) bool {
				if rcMix(c, salt)%k == 0 {
					return false
				}
				h := rcMix(c, salt+1)
				for w := range d {
					d[w] = float64(h>>(16*w)&0xffff) / 7
				}
				return true
			})
		}
	case 5:
		p.release()
		p.got.Persist()
		p.want.Persist()
		if g, w := commitDigest(p.got), commitDigest(p.want); g != w {
			p.fatalf("committed digest %#x, oracle %#x", g, w)
		}
	case 6:
		// The oracle's walks record no seeds, and the oracle drops those
		// its own Balance left: it probes every leaf, and the key-space
		// tree's seeded closure is held to that.
		p.want.seedSeq = 0
		if g, w := p.got.Balance(), p.want.Balance(); g != w {
			p.fatalf("Balance refined %d, oracle %d", g, w)
		}
	}
}

func (p *rcPair) refine(pred func(morton.Code) bool, maxLevel uint8) {
	p.check("refine", pred,
		func(pred func(morton.Code) bool) int { return p.got.RefineWhere(pred, maxLevel) },
		func(pred func(morton.Code) bool) int { return p.want.refineWhereWalk(pred, maxLevel) })
}

func (p *rcPair) coarsen(pred func(morton.Code) bool) {
	p.check("coarsen", pred, p.got.CoarsenWhere, p.want.coarsenWhereWalk)
}

// check runs one operation on both trees and compares everything it
// should leave equal: the predicate calls in order, the returned count,
// the op counters (COW copies, evictions, collections), both devices'
// write counts and bytes, the tree content, and the leaf index, bit for
// bit, against the oracle's and against a fresh walk.
func (p *rcPair) check(name string, pred func(morton.Code) bool, got, want func(func(morton.Code) bool) int) {
	p.t.Helper()
	p.settle()
	logged := func(log *[]morton.Code) func(morton.Code) bool {
		return func(c morton.Code) bool { *log = append(*log, c); return pred(c) }
	}
	var gotCalls, wantCalls []morton.Code
	gd0, wd0 := rcWrites(p.got), rcWrites(p.want)
	gn := got(logged(&gotCalls))
	gd := rcWrites(p.got).minus(gd0)
	wn := want(logged(&wantCalls))
	wd := rcWrites(p.want).minus(wd0)
	if gn != wn {
		p.fatalf("%s: %d, oracle %d", name, gn, wn)
	}
	if wn > 0 && p.want.seedSeq == p.want.topoSeq+1 {
		p.fatalf("%s: the oracle's walk recorded Balance seeds", name)
	}
	if !slices.Equal(gotCalls, wantCalls) {
		p.fatalf("%s: predicate called on %d codes, oracle on %d, or in another order", name, len(gotCalls), len(wantCalls))
	}
	if gs, ws := p.got.Stats(), p.want.Stats(); gs != ws {
		p.fatalf("%s: stats %+v, oracle %+v", name, gs, ws)
	}
	if gd != wd {
		p.fatalf("%s: device writes %+v, oracle %+v", name, gd, wd)
	}
	if !p.got.indexValid() || !p.want.indexValid() {
		p.fatalf("%s: index valid %v, oracle's %v", name, p.got.indexValid(), p.want.indexValid())
	}
	idx := storeLeaves(&p.got.idx)
	if !sameBits(idx, storeLeaves(&p.want.idx)) {
		p.fatalf("%s: index differs from the oracle's", name)
	}
	if !sameBits(idx, walkLeaves(p.got)) {
		p.fatalf("%s: index differs from a fresh walk", name)
	}
	if g, w := workingDigest(p.got), workingDigest(p.want); g != w {
		p.fatalf("%s: working digest %#x, oracle %#x", name, g, w)
	}
	if n := p.got.LeafCount(); n != len(idx) {
		p.fatalf("%s: LeafCount %d, index holds %d", name, n, len(idx))
	}
}

// settle makes the next operation's device traffic its own and its
// eviction order independent of access counts. Both bitmaps land
// (release), and every hot subtree gets the same access count in both trees,
// spaced so far apart that no operation's touches can reorder them: the
// key-space walks read only the changed paths, where the oracle reads
// every octant, and the LFA ranking is the one thing that may differ.
func (p *rcPair) settle() {
	p.release()
	hot := make([]morton.Code, 0, len(p.got.hot))
	for c := range p.got.hot {
		hot = append(hot, c)
	}
	slices.Sort(hot)
	if len(hot) != len(p.want.hot) {
		p.fatalf("%d hot subtrees, oracle %d", len(hot), len(p.want.hot))
	}
	for i, j := range p.rng.Perm(len(hot)) {
		if !p.want.hot[hot[i]] {
			p.fatalf("hot subtree %v not hot in the oracle", hot[i])
		}
		n := uint64(j+1) << 40
		p.got.access[hot[i]] = n
		p.want.access[hot[i]] = n
	}
}

// rcDeviceWrites is the write side of both devices.
type rcDeviceWrites struct{ nvWrites, nvBytes, dramWrites, dramBytes uint64 }

func rcWrites(tr *Tree) rcDeviceWrites {
	nv, dram := tr.NVBMDevice().Stats(), tr.DRAMDevice().Stats()
	return rcDeviceWrites{nv.Writes, nv.WriteBytes, dram.Writes, dram.WriteBytes}
}

func (a rcDeviceWrites) minus(b rcDeviceWrites) rcDeviceWrites {
	return rcDeviceWrites{a.nvWrites - b.nvWrites, a.nvBytes - b.nvBytes, a.dramWrites - b.dramWrites, a.dramBytes - b.dramBytes}
}

// sameBits compares leaf lists code for code and payload bit for bit.
func sameBits(a, b []leafEntry) bool {
	return slices.EqualFunc(a, b, func(x, y leafEntry) bool {
		if x.Code != y.Code {
			return false
		}
		for w := range x.Data {
			if math.Float64bits(x.Data[w]) != math.Float64bits(y.Data[w]) {
				return false
			}
		}
		return true
	})
}

// FuzzRefineCoarsen holds the key-space RefineWhere and CoarsenWhere to
// the whole-tree walks they replaced, over byte-coded scripts of random
// refinements (recursive to maxLevel, and sparse), cascading collapses,
// payload updates, Balance and Persist. cfg picks a C0 budget small
// enough to evict or the default, and the predicates' seed.
func FuzzRefineCoarsen(f *testing.F) {
	f.Add(byte(0), []byte{0, 3, 4, 0, 2, 1, 5, 0, 0, 2, 3, 0, 5, 0})
	f.Add(byte(1), []byte{0, 2, 5, 0, 1, 1, 4, 1, 2, 8, 5, 0, 0, 3, 3, 1})
	f.Add(byte(2), []byte{0, 3, 5, 0, 0, 1, 4, 2, 6, 0, 2, 3, 5, 0, 3, 2, 5, 0})
	f.Add(byte(3), []byte{1, 2, 4, 0, 5, 0, 0, 3, 2, 2, 6, 0, 5, 0, 2, 0})
	f.Add(byte(7), []byte{0, 3, 5, 0, 4, 3, 0, 2, 3, 0, 5, 0, 1, 1, 2, 5, 5, 0})
	f.Add(byte(2), []byte{0, 3, 5, 0, 0, 3, 0, 3, 5, 0, 0, 3, 2, 1, 5, 0, 0, 3, 3, 0, 0, 3})
	f.Add(byte(3), []byte{0, 3, 5, 0, 0, 3, 4, 0, 5, 0, 0, 3, 0, 3, 2, 2, 5, 0, 0, 3, 3, 1, 0, 3})
	// Balances between refines and coarsens: the key-space tree's
	// Balance ripples from the recorded cells.
	f.Add(byte(0), []byte{0, 3, 6, 0, 0, 1, 2, 3, 6, 0, 3, 2, 0, 1, 6, 0, 5, 0, 1, 2, 2, 4, 6, 0})
	f.Add(byte(3), []byte{0, 3, 5, 0, 6, 0, 3, 1, 6, 0, 0, 3, 2, 2, 6, 0, 4, 3, 6, 0})
	f.Fuzz(func(t *testing.T, cfg byte, ops []byte) {
		if len(ops) > 48 {
			return
		}
		conf := Config{Seed: 5}
		if cfg&2 != 0 {
			conf.DRAMBudgetOctants = 24
		}
		p := newRCPair(t, conf, int64(cfg))
		defer p.close()
		for i := 0; i+1 < len(ops); i += 2 {
			p.at = fmt.Sprintf("op %d (%s %d)", i/2, rcOps[int(ops[i])%len(rcOps)], ops[i+1])
			p.op(ops[i], ops[i+1])
		}
		p.at = "final persist"
		p.op(5, 0)
		if err := p.got.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRefineCoarsenReadsBoundedByChange: RefineWhere and CoarsenWhere read
// only the paths to what they change. A predicate that holds nowhere
// charges no device read, and splitting one leaf, then collapsing it
// again, charges the same reads on a tree refined elsewhere to level 4 as
// on one refined there to level 6.
func TestRefineCoarsenReadsBoundedByChange(t *testing.T) {
	never := func(morton.Code) bool { return false }
	target := morton.Encode(0, 0, 0, 3) // a leaf of the uniform level-3 base
	var split, merge [2]uint64
	for i, deep := range []uint8{4, 6} {
		// A C0 budget that holds either tree keeps L_sub, and so the
		// placement of every copy, the same in both.
		tr := Create(Config{DRAMBudgetOctants: 1 << 24})
		tr.RefineWhere(func(c morton.Code) bool { return c.Level() < 3 }, 3)
		tr.RefineWhere(containing(0.9, 0.9, 0.9), deep)
		tr.Persist()
		reads := func() uint64 { return tr.NVBMDevice().Stats().Reads + tr.DRAMDevice().Stats().Reads }
		before := reads()
		if n := tr.RefineWhere(never, morton.MaxLevel); n != 0 {
			t.Fatalf("level %d: RefineWhere(never) split %d", deep, n)
		}
		if n := tr.CoarsenWhere(never); n != 0 {
			t.Fatalf("level %d: CoarsenWhere(never) collapsed %d", deep, n)
		}
		if got := reads(); got != before {
			t.Errorf("level %d: predicates that hold nowhere charged %d device reads", deep, got-before)
		}
		before = reads()
		if n := tr.RefineWhere(func(c morton.Code) bool { return c == target }, morton.MaxLevel); n != 1 {
			t.Fatalf("level %d: split %d leaves, want 1", deep, n)
		}
		split[i] = reads() - before
		before = reads()
		if n := tr.CoarsenWhere(func(c morton.Code) bool { return c == target }); n != 1 {
			t.Fatalf("level %d: collapsed %d groups, want 1", deep, n)
		}
		merge[i] = reads() - before
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if split[0] == 0 || split[0] != split[1] {
		t.Errorf("one split charged %d device reads on the level-4 tree and %d on the level-6 tree, want equal", split[0], split[1])
	}
	if merge[0] == 0 || merge[0] != merge[1] {
		t.Errorf("one collapse charged %d device reads on the level-4 tree and %d on the level-6 tree, want equal", merge[0], merge[1])
	}
	t.Logf("one split charges %d device reads, one collapse %d", split[0], merge[0])
}
