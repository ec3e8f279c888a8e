package core

import (
	"fmt"
	"sort"
	"strings"

	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/pmem"
)

// Multi-version fallback recovery. The paper guarantees "at least one
// version of the octree is consistent" across clean stops; under torn
// writes and media rot the newest committed version itself can be damaged
// after it was committed. To recover from that, Persist keeps a small
// persistent ring of the last histSlots superseded (root, step) pairs in
// the arena root table, and RestoreWithReport walks candidates newest
// first — the committed root, then the ring — validating each and
// returning the newest intact one.
//
// With Config.RetainVersions == 0 (the default) the ring entries point at
// octants GC has already reclaimed; they are then merely best-effort
// (validation rejects recycled slots). Setting RetainVersions = k <=
// histSlots makes GC keep the k newest superseded versions reachable, so
// fallback is guaranteed to have intact targets unless the media damage
// spans every retained version.

// MaxRetainVersions is the depth of the persistent fallback ring, and
// therefore the largest admissible Config.RetainVersions: GC cannot keep a
// superseded version restorable once its ring entry has been overwritten.
const MaxRetainVersions = histSlots

// RetainDepthError reports a Config.RetainVersions exceeding the fallback
// ring depth. It used to be silently clamped; snapshot catalogs need the
// honest answer to size their version windows.
type RetainDepthError struct {
	Requested int // the configured RetainVersions
	Limit     int // MaxRetainVersions
}

func (e *RetainDepthError) Error() string {
	return fmt.Sprintf("core: RetainVersions %d exceeds the fallback ring depth %d", e.Requested, e.Limit)
}

const (
	// histSlots is the depth of the persistent fallback ring. With the
	// committed version itself that bounds the recovery chain at
	// histSlots+1 versions.
	histSlots = 3
	// histBase is the first root-table slot of the ring; entry i occupies
	// slots (histBase+2i, histBase+2i+1) = (root ref, step). The arena
	// root table has pmem.NumRoots slots; 0 and 1 hold the commit record.
	histBase = 2
)

func histAddrSlot(i int) int { return histBase + 2*i }
func histStepSlot(i int) int { return histBase + 2*i + 1 }

// ringVersions reads the fallback ring's entries in slot order.
func (t *Tree) ringVersions() [histSlots]VersionInfo {
	var ring [histSlots]VersionInfo
	for i := range ring {
		ring[i] = VersionInfo{Root: Ref(t.nv.Root(histAddrSlot(i))), Step: t.nv.Root(histStepSlot(i))}
	}
	return ring
}

// CommittedStep returns the step number of the last committed version.
func (t *Tree) CommittedStep() uint64 { return t.committedStep }

// CommittedStepOf reads the committed version number recorded on a
// surviving device without constructing a Tree (replica-freshness checks
// before a restore).
func CommittedStepOf(dev *nvbm.Device) (step uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: reading commit record: %v", r)
		}
	}()
	nv, err := pmem.OpenArena(dev)
	if err != nil {
		return 0, err
	}
	return nv.Root(rootSlotStep), nil
}

// CommittedRootRange returns the device byte range of the record of the
// root octant the commit record on a surviving device names, without
// constructing a Tree (fault harnesses aim at it to make the newest
// version unrestorable).
func CommittedRootRange(dev *nvbm.Device) (off, n int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: locating the committed root: %v", r)
		}
	}()
	nv, err := pmem.OpenArena(dev)
	if err != nil {
		return 0, 0, err
	}
	root := Ref(nv.Root(rootSlotAddr))
	if root.IsNil() || root.InDRAM() {
		return 0, 0, fmt.Errorf("core: commit record names no NVBM root (%v)", root)
	}
	off, n = nv.SlotRange(root.Handle())
	return off, n, nil
}

// RestoreReport describes how a restore found its version.
type RestoreReport struct {
	Candidates int      // versions examined, newest first
	Fallbacks  int      // candidates rejected before the chosen one
	ChosenStep uint64   // step number of the restored version
	Verified   bool     // deep validation ran on the chosen version
	Rejected   []string // rejection reasons for skipped candidates
}

// RestoreWithReport reopens a PM-octree like Restore, but walks the
// fallback chain: if the committed version fails validation (torn commit,
// media corruption), recovery falls back to the newest intact version in
// the persistent history ring instead of erroring. Candidates after the
// first are always deeply verified; the first (newest) is deeply verified
// only when cfg.VerifyRestore is set, keeping the default restore as
// cheap as the paper's (no octant data moves).
//
// When a fallback candidate is chosen, the commit record is repaired to
// point at it (root first, then step — crashing between the two stores
// leaves a state that restores to the same version).
func RestoreWithReport(cfg Config) (t *Tree, rep RestoreReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			t, err = nil, fmt.Errorf("core: restore panicked: %v", r)
		}
	}()
	if err := cfg.Validate(); err != nil {
		return nil, rep, err
	}
	cfg = cfg.withDefaults()
	nv, err := pmem.OpenArena(cfg.NVBMDevice)
	if err != nil {
		return nil, rep, fmt.Errorf("core: restoring PM-octree: %w", err)
	}
	if nv.SlotSize() != RecordSize {
		return nil, rep, fmt.Errorf("core: arena slot size %d does not hold octant records", nv.SlotSize())
	}

	type candidate struct {
		root Ref
		step uint64
	}
	prim := candidate{Ref(nv.Root(rootSlotAddr)), nv.Root(rootSlotStep)}
	cands := []candidate{prim}
	var ring []candidate
	for i := 0; i < histSlots; i++ {
		c := candidate{Ref(nv.Root(histAddrSlot(i))), nv.Root(histStepSlot(i))}
		if c.root.IsNil() || c.root.InDRAM() || c.root == prim.root {
			continue
		}
		ring = append(ring, c)
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].step > ring[j].step })
	cands = append(cands, ring...)

	t = &Tree{
		cfg:    cfg,
		dram:   pmem.NewArena(cfg.DRAMDevice, RecordSize),
		nv:     nv,
		hot:    map[morton.Code]bool{},
		access: map[morton.Code]uint64{},
		lsub:   1,
	}
	t.dram.SetBudget(cfg.DRAMBudgetOctants)
	if cfg.NVBMBudgetOctants > 0 {
		t.nv.SetBudget(cfg.NVBMBudgetOctants)
	}
	t.nv.SetWearLeveling(cfg.WearLeveling)

	for idx, c := range cands {
		rep.Candidates++
		deep := cfg.VerifyRestore || idx > 0
		if why := t.candidateError(c.root, c.step, deep); why != nil {
			rep.Rejected = append(rep.Rejected, fmt.Sprintf("step %d: %v", c.step, why))
			continue
		}
		t.committed, t.cur = c.root, c.root
		t.committedStep = c.step
		t.led = newLedger("restore", c.root, c.step)
		// The working version number must exceed every version tag stored
		// anywhere in the arena, including the rejected newer versions.
		t.step = c.step + 1
		if prim.step+1 > t.step {
			t.step = prim.step + 1
		}
		rep.ChosenStep = c.step
		rep.Fallbacks = idx
		rep.Verified = deep
		if idx > 0 {
			landBits(t.nv)
			t.nv.SetRoot(rootSlotAddr, uint64(c.root))
			t.nv.SetRoot(rootSlotStep, c.step)
		}
		return t, rep, nil
	}
	return nil, rep, fmt.Errorf("core: no intact committed version among %d candidates: %s",
		rep.Candidates, strings.Join(rep.Rejected, "; "))
}

// candidateError checks whether the version rooted at root is restorable.
// The cheap check (deep=false) matches the legacy Restore precondition;
// the deep check additionally validates arena metadata and every
// reachable octant against media CRCs and structural invariants, and
// converts panics from walking garbage into rejections.
func (t *Tree) candidateError(root Ref, step uint64, deep bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("validation panicked: %v", r)
		}
	}()
	if root.IsNil() || root.InDRAM() || !t.nv.Live(root.Handle()) {
		return fmt.Errorf("root %v is not a live NVBM octant", root)
	}
	if !deep {
		return nil
	}
	return t.verifyVersion(root, step)
}

// verifyVersion deeply validates the committed version rooted at root: the
// arena metadata region and every reachable octant must pass the device's
// media CRC check (when tracking is on), every reachable ref must be a
// live NVBM slot, child codes must follow from parent codes, version tags
// must not exceed the version's step, and the graph must be acyclic.
func (t *Tree) verifyVersion(root Ref, step uint64) error {
	dev := t.cfg.NVBMDevice
	if dev.RangeCorrupt(0, t.nv.DataOffset()) {
		return fmt.Errorf("arena metadata region failed media CRC")
	}
	seen := make(map[pmem.Handle]bool)
	var walk func(r Ref, want morton.Code) error
	walk = func(r Ref, want morton.Code) error {
		if r.InDRAM() {
			return fmt.Errorf("octant %v resides in DRAM", want)
		}
		h := r.Handle()
		if seen[h] {
			return fmt.Errorf("cycle through handle %d", h)
		}
		if !t.nv.Live(h) {
			return fmt.Errorf("octant %v slot is not live", want)
		}
		seen[h] = true
		if off, n := t.nv.SlotRange(h); dev.RangeCorrupt(off, n) {
			return fmt.Errorf("octant %v failed media CRC", want)
		}
		var o Octant
		t.nv.Read(h, t.scratch[:])
		o.decode(t.scratch[:])
		if o.Code != want {
			return fmt.Errorf("octant code %v, want %v", o.Code, want)
		}
		if o.Version > step {
			return fmt.Errorf("octant %v version %d exceeds committed step %d", want, o.Version, step)
		}
		for i, c := range o.Children {
			if c.IsNil() {
				continue
			}
			if err := walk(c, want.Child(i)); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(root, morton.Root)
}
