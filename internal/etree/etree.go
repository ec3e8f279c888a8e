// Package etree implements the out-of-core baseline of the evaluation: a
// paged linear octree in the style of the Etree library (Tu, Lopez,
// O'Hallaron, CMU-CS-03-174; SC '04), adapted to run over NVBM accessed
// through a file-system interface, as §5.1 of the paper describes.
//
// Three structural properties drive its performance, all reproduced here:
//
//   - Octants are not byte-addressable: the minimum I/O unit is a 4 KiB
//     page holding many octant records (§5.4).
//   - Every octant lookup first walks a B-tree index keyed by the octant's
//     Z-value (level-prefixed Morton code); index probes are charged as
//     page reads on the same device.
//   - The octree is linear: only leaves are stored and no neighbor or
//     parent pointers exist, so 2:1 balancing must probe all 26 neighbors
//     of every octant through the index (§5.4).
//
// In exchange, the structure is a database: it is consistent on the device
// at every operation boundary, so failure recovery is immediate (§5.6) —
// as long as the device itself survives (it cannot be replicated, which is
// why it cannot recover in the lost-node scenario).
package etree

import (
	"encoding/binary"
	"fmt"
	"math"

	"pmoctree/internal/btree"
	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/pagefile"
	"pmoctree/internal/telemetry"
)

// DataWords matches the octant payload of the other implementations.
const DataWords = 4

// recSize is one octant record: code + data.
const recSize = 8 + 8*DataWords

// PageCapacity is the number of octant records per 4 KiB page.
const PageCapacity = (pagefile.PageSize - 4) / recSize

// Tree is a paged linear octree over an NVBM device.
type Tree struct {
	store *pagefile.Store
	index *btree.Tree       // Z-value -> page id
	fill  []int             // records per page (volatile; rebuilt on Open)
	open  int               // page currently accepting inserts, -1 if none
	tel   *telemetry.Tracer // nil when telemetry is off
}

// New creates an empty linear octree holding the root octant.
func New(dev *nvbm.Device) *Tree {
	t := &Tree{
		store: pagefile.NewStore(dev),
		index: btree.New(),
		open:  -1,
	}
	t.chargeIndexIO()
	t.insert(morton.Root, [DataWords]float64{})
	return t
}

// chargeIndexIO wires the B-tree's per-node Touch to a page-sized read on
// the backing device: index pages live on the same slow medium.
func (t *Tree) chargeIndexIO() {
	dev := t.store.Device()
	t.index.Touch = func() { dev.ChargeRead(pagefile.PageSize) }
}

// Open rebuilds a Tree from a device written by a previous Tree — the
// restart path. Recovery is effectively free (§5.6: "the program can
// immediately access octants in NVBM because Etree is essentially an
// octant database"): both octant pages and index state live on the
// device, and every index access is charged per operation via Touch. The
// in-memory mirror rebuilt here is an artifact of the emulation, so the
// scan runs unmetered; only one superblock page read is charged.
func Open(dev *nvbm.Device) (*Tree, error) {
	t := &Tree{
		store: pagefile.NewStore(dev),
		index: btree.New(),
		open:  -1,
	}
	t.chargeIndexIO()
	dev.ChargeRead(pagefile.PageSize)
	dev.SetAccounting(false)
	defer dev.SetAccounting(true)
	npages := dev.Size() / pagefile.PageSize
	buf := make([]byte, pagefile.PageSize)
	for pid := 0; pid < npages; pid++ {
		if t.store.AllocPage() != pid {
			return nil, fmt.Errorf("etree: page enumeration out of sync")
		}
		t.store.ReadPage(pid, buf)
		n := int(binary.LittleEndian.Uint32(buf))
		if n > PageCapacity {
			return nil, fmt.Errorf("etree: page %d claims %d records", pid, n)
		}
		t.fill = append(t.fill, n)
		for i := 0; i < n; i++ {
			code := morton.Code(binary.LittleEndian.Uint64(buf[4+i*recSize:]))
			t.index.Put(code.Key(), pid)
		}
		if n < PageCapacity && t.open < 0 {
			t.open = pid
		}
	}
	if t.index.Len() == 0 {
		return nil, fmt.Errorf("etree: device holds no octants")
	}
	return t, nil
}

// SetTracer attaches a telemetry tracer; the batch routines
// (Refine/Coarsen/Balance/Solve) then record phase spans. A nil tracer
// (the default) turns spans off.
func (t *Tree) SetTracer(tel *telemetry.Tracer) { t.tel = tel }

// Tracer returns the attached tracer, satisfying telemetry.Traceable.
func (t *Tree) Tracer() *telemetry.Tracer { return t.tel }

// LeafCount returns the number of stored octants (all are leaves).
func (t *Tree) LeafCount() int { return t.index.Len() }

// Device returns the backing device.
func (t *Tree) Device() *nvbm.Device { return t.store.Device() }

// --- page-level record plumbing ---

func (t *Tree) readPage(pid int, buf []byte) int {
	t.store.ReadPage(pid, buf)
	return int(binary.LittleEndian.Uint32(buf))
}

func (t *Tree) writePage(pid int, buf []byte, n int) {
	binary.LittleEndian.PutUint32(buf, uint32(n))
	t.store.WritePage(pid, buf)
	t.fill[pid] = n
}

func recCode(buf []byte, i int) morton.Code {
	return morton.Code(binary.LittleEndian.Uint64(buf[4+i*recSize:]))
}

func recData(buf []byte, i int) (d [DataWords]float64) {
	for w := 0; w < DataWords; w++ {
		d[w] = math.Float64frombits(binary.LittleEndian.Uint64(buf[4+i*recSize+8+8*w:]))
	}
	return
}

func putRec(buf []byte, i int, code morton.Code, d [DataWords]float64) {
	binary.LittleEndian.PutUint64(buf[4+i*recSize:], uint64(code))
	for w := 0; w < DataWords; w++ {
		binary.LittleEndian.PutUint64(buf[4+i*recSize+8+8*w:], math.Float64bits(d[w]))
	}
}

// insert adds an octant record, appending to the open page.
func (t *Tree) insert(code morton.Code, d [DataWords]float64) {
	buf := make([]byte, pagefile.PageSize)
	if t.open < 0 || t.fill[t.open] >= PageCapacity {
		t.open = -1
		for pid, n := range t.fill {
			if n < PageCapacity {
				t.open = pid
				break
			}
		}
		if t.open < 0 {
			t.open = t.store.AllocPage()
			t.fill = append(t.fill, 0)
			t.writePage(t.open, buf, 0)
		}
	}
	n := t.readPage(t.open, buf)
	putRec(buf, n, code, d)
	t.writePage(t.open, buf, n+1)
	t.index.Put(code.Key(), t.open)
}

// remove deletes the octant record for code, returning its data.
func (t *Tree) remove(code morton.Code) ([DataWords]float64, bool) {
	pid, ok := t.index.Get(code.Key())
	if !ok {
		return [DataWords]float64{}, false
	}
	buf := make([]byte, pagefile.PageSize)
	n := t.readPage(pid, buf)
	for i := 0; i < n; i++ {
		if recCode(buf, i) == code {
			d := recData(buf, i)
			// Swap-last compaction within the page.
			if i != n-1 {
				last := recCode(buf, n-1)
				putRec(buf, i, last, recData(buf, n-1))
				_ = last
			}
			t.writePage(pid, buf, n-1)
			t.index.Delete(code.Key())
			return d, true
		}
	}
	return [DataWords]float64{}, false
}

// get reads the octant record for code.
func (t *Tree) get(code morton.Code) ([DataWords]float64, bool) {
	pid, ok := t.index.Get(code.Key())
	if !ok {
		return [DataWords]float64{}, false
	}
	buf := make([]byte, pagefile.PageSize)
	n := t.readPage(pid, buf)
	for i := 0; i < n; i++ {
		if recCode(buf, i) == code {
			return recData(buf, i), true
		}
	}
	return [DataWords]float64{}, false
}

// set rewrites the octant record for code in place.
func (t *Tree) set(code morton.Code, d [DataWords]float64) bool {
	pid, ok := t.index.Get(code.Key())
	if !ok {
		return false
	}
	buf := make([]byte, pagefile.PageSize)
	n := t.readPage(pid, buf)
	for i := 0; i < n; i++ {
		if recCode(buf, i) == code {
			putRec(buf, i, code, d)
			t.writePage(pid, buf, n)
			return true
		}
	}
	return false
}

// --- linear octree operations ---

// Exists reports whether code names a stored leaf.
func (t *Tree) Exists(code morton.Code) bool {
	_, ok := t.index.Get(code.Key())
	return ok
}

// FindLeaf returns the code of the stored leaf containing code. A linear
// octree has no pointers, so the search probes the index once per ancestor
// level — part of the baseline's cost.
func (t *Tree) FindLeaf(code morton.Code) (morton.Code, bool) {
	for l := int(code.Level()); l >= 0; l-- {
		anc := code.AncestorAt(uint8(l))
		if t.Exists(anc) {
			return anc, true
		}
	}
	return 0, false
}

// Refine splits the leaf at code into 8 children inheriting its data.
func (t *Tree) Refine(code morton.Code) bool {
	d, ok := t.remove(code)
	if !ok {
		return false
	}
	for i := 0; i < 8; i++ {
		t.insert(code.Child(i), d)
	}
	return true
}

// Coarsen replaces the 8 children of code with code itself, averaging
// their data. All 8 children must exist as leaves.
func (t *Tree) Coarsen(code morton.Code) bool {
	var kids [8]morton.Code
	for i := 0; i < 8; i++ {
		kids[i] = code.Child(i)
		if !t.Exists(kids[i]) {
			return false
		}
	}
	var sum [DataWords]float64
	for _, k := range kids {
		d, _ := t.remove(k)
		for w := 0; w < DataWords; w++ {
			sum[w] += d[w]
		}
	}
	for w := 0; w < DataWords; w++ {
		sum[w] /= 8
	}
	t.insert(code, sum)
	return true
}

// ForEachLeaf visits all leaves in Z-order.
func (t *Tree) ForEachLeaf(fn func(code morton.Code, data [DataWords]float64) bool) {
	// Collect codes first: mutating during Ascend is not supported, and
	// record access reads each page per record (the paged-I/O cost).
	var codes []morton.Code
	t.index.Ascend(0, func(k uint64, _ int) bool {
		codes = append(codes, morton.FromKey(k))
		return true
	})
	for _, c := range codes {
		d, ok := t.get(c)
		if !ok {
			continue
		}
		if !fn(c, d) {
			return
		}
	}
}

// LeafCodes returns all leaf codes in Z-order.
func (t *Tree) LeafCodes() []morton.Code {
	var codes []morton.Code
	t.index.Ascend(0, func(k uint64, _ int) bool {
		codes = append(codes, morton.FromKey(k))
		return true
	})
	return codes
}

// RefineWhere refines every leaf satisfying pred until none below
// maxLevel does. Returns the number of splits.
func (t *Tree) RefineWhere(pred func(morton.Code) bool, maxLevel uint8) int {
	defer t.tel.Begin("Refine").End()
	refined := 0
	queue := t.LeafCodes()
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		if c.Level() >= maxLevel || !pred(c) || !t.Exists(c) {
			continue
		}
		if t.Refine(c) {
			refined++
			for i := 0; i < 8; i++ {
				queue = append(queue, c.Child(i))
			}
		}
	}
	return refined
}

// CoarsenWhere collapses complete sibling groups whose parent satisfies
// pred, repeatedly, until stable. Returns the number of collapses.
func (t *Tree) CoarsenWhere(pred func(morton.Code) bool) int {
	defer t.tel.Begin("Coarsen").End()
	coarsened := 0
	for {
		did := false
		for _, c := range t.LeafCodes() {
			if c.Level() == 0 || c.ChildIndex() != 0 {
				continue
			}
			parent := c.Parent()
			if !pred(parent) {
				continue
			}
			if t.Coarsen(parent) {
				coarsened++
				did = true
			}
		}
		if !did {
			return coarsened
		}
	}
}

// UpdateLeaves applies fn to every leaf, rewriting records whose data
// changed (whole-page writes). Returns the number of modified leaves.
func (t *Tree) UpdateLeaves(fn func(code morton.Code, data *[DataWords]float64) bool) int {
	defer t.tel.Begin("Solve").End()
	changed := 0
	for _, c := range t.LeafCodes() {
		d, ok := t.get(c)
		if !ok {
			continue
		}
		if fn(c, &d) {
			t.set(c, d)
			changed++
		}
	}
	return changed
}

// Balance enforces the 2:1 constraint. With no pointers, every leaf must
// probe all 26 neighbor keys through the index, and a containing-leaf
// search costs one probe per level (§5.4: "for a single octant, it needs
// to search all its 26 neighbors, resulting in very high I/O overhead").
// Violators are refined in batches per scan. Returns the number of
// refines.
func (t *Tree) Balance() int {
	defer t.tel.Begin("Balance").End()
	refined := 0
	for {
		seen := map[morton.Code]bool{}
		var victims []morton.Code
		var scratch [26]morton.Code
		for _, c := range t.LeafCodes() {
			if c.Level() < 2 {
				continue
			}
			for _, nb := range c.AllNeighbors(scratch[:0]) {
				leaf, ok := t.FindLeaf(nb)
				if ok && c.Level()-leaf.Level() > 1 && !seen[leaf] {
					seen[leaf] = true
					victims = append(victims, leaf)
				}
			}
		}
		if len(victims) == 0 {
			return refined
		}
		for _, v := range victims {
			if t.Refine(v) {
				refined++
			}
		}
	}
}

// IsBalanced reports whether the 2:1 constraint holds across faces, edges
// and corners.
func (t *Tree) IsBalanced() bool {
	ok := true
	var scratch [26]morton.Code
	for _, c := range t.LeafCodes() {
		if c.Level() < 2 {
			continue
		}
		for _, nb := range c.AllNeighbors(scratch[:0]) {
			leaf, found := t.FindLeaf(nb)
			if found && c.Level()-leaf.Level() > 1 {
				ok = false
				return ok
			}
		}
	}
	return ok
}

// Validate checks linear-octree invariants: leaves tile the domain exactly
// (no overlaps, no gaps), verified by volume and pairwise ancestry.
func (t *Tree) Validate() error {
	codes := t.LeafCodes()
	if len(codes) == 0 {
		return fmt.Errorf("etree: no leaves")
	}
	vol := 0.0
	for i, c := range codes {
		e := c.Extent()
		vol += e * e * e
		if i > 0 {
			if !codes[i-1].Less(c) {
				return fmt.Errorf("etree: leaves out of Z-order at %v", c)
			}
			if codes[i-1].Contains(c) || c.Contains(codes[i-1]) {
				return fmt.Errorf("etree: overlapping leaves %v and %v", codes[i-1], c)
			}
		}
	}
	if math.Abs(vol-1.0) > 1e-9 {
		return fmt.Errorf("etree: leaves cover volume %v, want 1", vol)
	}
	return nil
}
