package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
)

// moveWalk is the merge walk moveToNVBM replaced, kept as its oracle
// (TestMergeMatchesWalkOracle): it reads every working-version NVBM
// octant, and the version tag of each one's children, to find the C0
// octants below.
func (t *Tree) moveWalk(r Ref) Ref {
	if r.IsNil() {
		return r
	}
	if !r.InDRAM() {
		if !t.isCurrent(r) {
			return r // shared subtree: closed under NVBM already
		}
		o := t.readOct(r)
		changed := false
		for i, c := range o.Children {
			if nc := t.moveWalk(c); nc != c {
				o.Children[i] = nc
				changed = true
			}
		}
		if changed {
			t.writeChildren(r, &o)
		}
		return r
	}
	o := t.readOct(r)
	nr := t.allocIn(false)
	for i, c := range o.Children {
		o.Children[i] = t.moveWalk(c)
	}
	t.writeOct(nr, &o)
	t.dram.Free(r.Handle())
	return nr
}

// isCurrent reports whether the octant at r belongs to the working
// version's mutable set, reading only its version field.
func (t *Tree) isCurrent(r Ref) bool {
	return r.InDRAM() || t.readVersion(r) == t.step
}

// readVersion loads the version word at r.
func (t *Tree) readVersion(r Ref) uint64 {
	var buf [RecordSize]byte
	t.arenaFor(r).Read(r.Handle(), buf[:])
	return binary.LittleEndian.Uint64(buf[offVersion:])
}

// mergePair drives one tree through the span-directed merge and its twin
// through the walk oracle, over the same operations. After every persist
// both NVBM devices must hold the same bytes, the merge must have written
// exactly the oracle's writes, and it must have read no more than the
// oracle.
type mergePair struct {
	t         testing.TB
	cfg       [2]Config // got's, want's
	got, want *Tree
	at        string // the running operation, for failure messages
}

func newMergePair(t testing.TB, conf Config) *mergePair {
	p := &mergePair{t: t}
	for i := range p.cfg {
		p.cfg[i] = conf
		p.cfg[i].NVBMDevice, p.cfg[i].DRAMDevice = nvbm.New(nvbm.NVBM, 0), nvbm.New(nvbm.DRAM, 0)
	}
	p.got, p.want = p.hook(Create(p.cfg[0]), false), p.hook(Create(p.cfg[1]), true)
	return p
}

func (p *mergePair) hook(tr *Tree, oracle bool) *Tree {
	if oracle {
		tr.mergeOracle = (*Tree).moveWalk
	}
	return tr
}

// release lands both trees' allocation bitmaps, so both devices are
// compared at rest.
func (p *mergePair) release() {
	p.got.Flush()
	p.want.Flush()
}

func (p *mergePair) fatalf(format string, args ...any) {
	p.t.Helper()
	p.t.Fatalf(p.at+": "+format, args...)
}

// compare holds the span-directed tree to the oracle at rest.
func (p *mergePair) compare() {
	p.t.Helper()
	p.release()
	gn, wn := p.got.NVBMDevice(), p.want.NVBMDevice()
	if !bytes.Equal(gn.Bytes(), wn.Bytes()) {
		p.fatalf("NVBM device bytes differ from the oracle's")
	}
	for _, d := range [][2]*nvbm.Device{{gn, wn}, {p.got.DRAMDevice(), p.want.DRAMDevice()}} {
		g, w := d[0].Stats(), d[1].Stats()
		if g.Writes != w.Writes || g.WriteBytes != w.WriteBytes {
			p.fatalf("%v device: %d writes (%d B), oracle %d (%d B)", d[0].Kind(), g.Writes, g.WriteBytes, w.Writes, w.WriteBytes)
		}
		if g.Reads > w.Reads {
			p.fatalf("%v device: %d reads, more than the oracle's %d", d[0].Kind(), g.Reads, w.Reads)
		}
	}
	if gs, ws := p.got.Stats(), p.want.Stats(); gs != ws {
		p.fatalf("stats %+v, oracle %+v", gs, ws)
	}
}

// mergeOps names the operations of the pair's script.
var mergeOps = [...]string{"refine ball", "coarsen outside ball", "scatter", "update", "evict", "persist", "gc", "restore", "compact", "balance", "retarget", "refine hash", "coarsen hash"}

// op runs operation code with argument arg on both trees.
func (p *mergePair) op(code, arg byte) {
	x := float64(arg%16) / 16
	near := sphere(x, 1-x, 0.5, 0.3, 0.08)
	both := func(fn func(tr *Tree)) { fn(p.got); fn(p.want) }
	switch int(code) % len(mergeOps) {
	case 0:
		both(func(tr *Tree) { tr.RefineWhere(near, 3+arg%3) })
	case 1:
		both(func(tr *Tree) { tr.CoarsenWhere(func(c morton.Code) bool { return c.Level() >= 1 && !near(c) }) })
	case 2:
		both(func(tr *Tree) {
			sweepTiled(tr, func(c morton.Code, d *[DataWords]float64) bool {
				if uint64(c)%5 != uint64(arg)%5 {
					return false
				}
				d[0]++
				return true
			})
		})
	case 3:
		both(func(tr *Tree) {
			tr.UpdateLeavesIndexed(func(c morton.Code, d *[DataWords]float64) bool {
				if uint64(c)%7 != uint64(arg)%7 {
					return false
				}
				d[1] += 0.5
				return true
			})
		})
	case 4:
		hot := make([]morton.Code, 0, len(p.got.hot))
		for c := range p.got.hot {
			if !p.want.hot[c] {
				p.fatalf("hot subtree %v not hot in the oracle", c)
			}
			hot = append(hot, c)
		}
		if len(hot) != len(p.want.hot) {
			p.fatalf("%d hot subtrees, oracle %d", len(hot), len(p.want.hot))
		}
		if len(hot) > 0 {
			slices.Sort(hot)
			victim := hot[int(arg)%len(hot)]
			both(func(tr *Tree) { tr.evictSubtree(victim) })
		}
	case 5:
		p.release()
		both(func(tr *Tree) { tr.Persist() })
		p.compare()
	case 6:
		both(func(tr *Tree) { tr.GC() })
	case 7:
		p.release()
		both(func(tr *Tree) { tr.Close() })
		for i, oracle := range []bool{false, true} {
			rt, err := Restore(p.cfg[i])
			if err != nil {
				p.fatalf("restore: %v", err)
			}
			if oracle {
				p.want = p.hook(rt, true)
			} else {
				p.got = p.hook(rt, false)
			}
		}
	case 8:
		if p.got.Root() == p.got.CommittedRoot() {
			p.release()
			both(func(tr *Tree) {
				if _, err := tr.Compact(); err != nil {
					p.fatalf("compact: %v", err)
				}
			})
			p.cfg[0].NVBMDevice, p.cfg[1].NVBMDevice = p.got.NVBMDevice(), p.want.NVBMDevice()
		}
	case 9:
		both(func(tr *Tree) { tr.Balance() })
	case 10:
		// A mid-step layout pass: new hot subtrees under working-version
		// NVBM octants, whose later copies land in C0 below them.
		both(func(tr *Tree) { tr.Retarget() })
	case 11:
		// Sparse splits all over the tree, hot subtrees and cold alike:
		// the splits that fill C0 place their copies in NVBM, and later
		// ones put C0 children under those copies.
		salt := uint64(arg) * 0x9e3779b97f4a7c15
		both(func(tr *Tree) { tr.RefineWhere(func(c morton.Code) bool { return rcMix(c, salt)%3 == 0 }, 4) })
	case 12:
		salt := uint64(arg) * 0x9e3779b97f4a7c15
		both(func(tr *Tree) { tr.CoarsenWhere(func(c morton.Code) bool { return rcMix(c, salt)%3 == 0 }) })
	}
}

// TestMergeMatchesWalkOracle runs random operation sequences — refine and
// coarsen (spatial and scattered), tile scatter, indexed update, eviction,
// persist, collection, clean restart, compaction, balance, a mid-step
// layout pass — on a tree and on its twin merging through the walk
// oracle, at each of gcConfigs, behind C0 budgets that fill up
// (dramFull) and that restart from the bootstrap layout (trunk == nil)
// after every restore. After every persist the devices must be
// byte-identical, the span-directed merge must have written exactly the
// oracle's writes, and it may only read less.
func TestMergeMatchesWalkOracle(t *testing.T) {
	seeds, budgets := 4, []int{24, 96, 200}
	if testing.Short() {
		seeds, budgets = 1, budgets[:2]
	}
	for _, c := range gcConfigs {
		for _, budget := range budgets {
			t.Run(fmt.Sprintf("depth%d_retain%d_c0_%d", c[0], c[1], budget), func(t *testing.T) {
				var saved uint64
				for seed := 0; seed < seeds; seed++ {
					rng := rand.New(rand.NewSource(int64(seed)))
					p := newMergePair(t, Config{DRAMBudgetOctants: budget, PipelineDepth: c[0], RetainVersions: c[1], Seed: int64(seed)})
					for i := 0; i < 120; i++ {
						code, arg := byte(rng.Intn(len(mergeOps))), byte(rng.Intn(256))
						if rng.Intn(6) == 0 {
							code = 5 // steps of a few operations each
						}
						p.at = fmt.Sprintf("seed %d op %d (%s %d)", seed, i, mergeOps[code], arg)
						p.op(code, arg)
					}
					p.at = fmt.Sprintf("seed %d final persist", seed)
					p.op(5, 0)
					if err := p.got.Validate(); err != nil {
						t.Fatal(err)
					}
					saved += p.want.NVBMDevice().Stats().Reads - p.got.NVBMDevice().Stats().Reads
					p.got.Close()
					p.want.Close()
				}
				t.Logf("the span-directed merge saved %d NVBM reads", saved)
			})
		}
	}
}

// TestC0SpansMatchScan holds the span map to a scan of the C0 codes it
// was told about, on codes down to level 10: below(c) is exact for a cell
// at or above c0SpanLevel, and answers for the whole level-c0SpanLevel
// cell below it.
func TestC0SpansMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randCode := func(level uint8) morton.Code {
		c := morton.Root
		for c.Level() < level {
			c = c.Child(rng.Intn(2)) // stay in a few corners, so spans overlap
		}
		return c
	}
	strictlyBelow := func(live []morton.Code, c morton.Code) bool {
		for _, x := range live {
			if c.IsAncestorOf(x) {
				return true
			}
		}
		return false
	}
	for round := 0; round < 50; round++ {
		var s c0Spans
		var live []morton.Code
		for i := 0; i < 40; i++ {
			if rng.Intn(4) == 0 {
				// The merge drained a span at or above c0SpanLevel.
				c := randCode(uint8(rng.Intn(c0SpanLevel + 1)))
				s.clearUnder(c)
				live = slices.DeleteFunc(live, c.Contains)
				continue
			}
			c := randCode(uint8(rng.Intn(11)))
			s.mark(c)
			live = append(live, c)
		}
		for level := uint8(0); level <= 10; level++ {
			c := randCode(level)
			want := strictlyBelow(live, c)
			if level > c0SpanLevel {
				want = strictlyBelow(live, c.AncestorAt(c0SpanLevel))
			}
			if got := s.below(c); got != want {
				t.Fatalf("round %d: below(%v) = %v, a scan of %d C0 codes says %v", round, c, got, len(live), want)
			}
		}
		s.reset()
		if s.below(morton.Root) {
			t.Fatalf("round %d: a C0 octant below the root after reset", round)
		}
	}
}

// TestEvictSubtreeClearsAccess pins the satellite fix: eviction retires
// the victim's access count along with its hot-set membership, so a stale
// pre-eviction count can never skew a later LFA ranking, and dead (non-
// hot) entries never participate in eviction ordering.
func TestEvictSubtreeClearsAccess(t *testing.T) {
	tr := Create(Config{NVBMDevice: nvbm.New(nvbm.NVBM, 0), DRAMBudgetOctants: 256, Seed: 3})
	tr.SetFeatures(func(c morton.Code) bool { return true })
	tr.RefineWhere(func(c morton.Code) bool { return c.Level() < 2 }, 2)
	tr.Persist()
	if len(tr.hot) == 0 {
		t.Fatal("retarget selected no hot subtrees")
	}

	// Give the victim an absurd pre-eviction count; after eviction the
	// entry must not retain it (the relocation walk re-creates it with
	// only its own touches, which is the correct post-eviction signal).
	victim, ok := tr.leastAccessedHot()
	if !ok {
		t.Fatal("no hot subtree to evict")
	}
	const stale = 1 << 40
	tr.access[victim] = stale
	tr.evictSubtree(victim)
	if tr.hot[victim] {
		t.Fatal("eviction left the victim in the hot set")
	}
	if n := tr.access[victim]; n >= stale {
		t.Fatalf("eviction left the stale access count %d in place", n)
	}

	// Eviction ordering ignores dead entries: a huge count on a code that
	// is NOT hot must not displace the true least-accessed hot subtree.
	var want morton.Code
	wantN := ^uint64(0)
	for c := range tr.hot {
		if n := tr.access[c]; n < wantN || (n == wantN && c < want) {
			want, wantN = c, n
		}
	}
	tr.access[victim] = 1 // dead entry: victim is no longer hot
	got, ok := tr.leastAccessedHot()
	if !ok || got != want {
		t.Fatalf("leastAccessedHot returned %v, want %v (dead entries must not participate)", got, want)
	}
}
