package core

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
	"pmoctree/internal/pmem"
)

// imageConfig is the configuration the arena-image tests persist and
// restore with: a small C0 so most of the mesh lives in NVBM, and a
// retained fallback ring so restore has older versions to walk to.
func imageConfig(dev *nvbm.Device) Config {
	return Config{NVBMDevice: dev, DRAMBudgetOctants: 16, RetainVersions: 2, VerifyRestore: true}
}

// persistedImage builds an arena holding three committed versions of a
// refined, data-carrying mesh.
func persistedImage(tb testing.TB) *nvbm.Device {
	tb.Helper()
	dev := nvbm.New(nvbm.NVBM, 0)
	tr := Create(imageConfig(dev))
	for s := 1; s <= 3; s++ {
		f := float64(s)
		tr.RefineWhere(sphere(0.3+0.1*f, 0.5, 0.5, 0.25, 0.15), 3)
		tr.UpdateLeaves(func(c morton.Code, d *[DataWords]float64) bool {
			d[0] = f
			return true
		})
		tr.Persist()
	}
	return dev
}

// xorByte flips the bits of x in the device byte at off, in place and
// uncharged — the media corruption a damaged image carries.
func xorByte(dev *nvbm.Device, off int, x byte) {
	for bit := uint8(0); bit < 8; bit++ {
		if x&(1<<bit) != 0 {
			dev.FlipBit(off, bit)
		}
	}
}

// TestRestoreRejectsCorruptGeometry flips single arena-header bytes that
// used to restore "successfully": a stride or a capacity that moves every
// slot offset (an all-zero record then decodes as a valid one-leaf tree),
// and high-water marks past the device's end (the first allocating refine
// then writes out of range). Restore must reject each with the geometry
// error instead.
func TestRestoreRejectsCorruptGeometry(t *testing.T) {
	base := persistedImage(t)
	cases := []struct {
		name string
		off  int
		x    byte
	}{
		{"stride-88-to-344", 13, 0x01},
		{"high-water-plus-65536", 18, 0x01},
		{"high-water-plus-4096", 17, 0x10},
		{"capacity-plus-25600", 21, 0x64},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dev := base.Clone()
			xorByte(dev, c.off, c.x)
			_, _, err := RestoreWithReport(imageConfig(dev))
			if err == nil {
				t.Fatal("restore accepted a corrupt arena geometry")
			}
			if !strings.Contains(err.Error(), "corrupt arena geometry") {
				t.Fatalf("restore failed with %v, want the geometry error", err)
			}
		})
	}
}

// TestRestoreRejectsOldMagic stamps the previous format's magic, PMARENA3,
// into an otherwise valid image. Its code words would decode as other
// octants, so opening the arena, reading its commit record and restoring
// must each refuse it with pmem.ErrBadMagic.
func TestRestoreRejectsOldMagic(t *testing.T) {
	dev := persistedImage(t)
	if _, _, err := RestoreWithReport(imageConfig(dev.Clone())); err != nil {
		t.Fatalf("the unstamped image does not restore: %v", err)
	}
	dev.WriteAt(0, []byte("PMARENA3"))
	_, openErr := pmem.OpenArena(dev)
	_, stepErr := CommittedStepOf(dev)
	_, _, restoreErr := RestoreWithReport(imageConfig(dev))
	for name, err := range map[string]error{"OpenArena": openErr, "CommittedStepOf": stepErr, "RestoreWithReport": restoreErr} {
		if !errors.Is(err, pmem.ErrBadMagic) {
			t.Errorf("%s on a PMARENA3 image: %v, want pmem.ErrBadMagic", name, err)
		}
	}
}

// restoreDamaged restores a damaged image with deep verification, at the
// retention imageConfig persisted it with. Restore may reject the image; a
// tree it hands back must validate, survive an allocating refine and a
// persist (whose collection marks from every retained ring entry), and
// validate again.
func restoreDamaged(t *testing.T, dev *nvbm.Device) {
	t.Helper()
	tr, _, err := RestoreWithReport(imageConfig(dev))
	if err != nil {
		return
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("restored tree invalid: %v", err)
	}
	tr.RefineWhere(sphere(0.5, 0.5, 0.5, 0.2, 0.1), 4)
	tr.Persist()
	if err := tr.Validate(); err != nil {
		t.Fatalf("tree invalid after refine and persist: %v", err)
	}
}

// TestRestoreDamagedImage holds restoreDamaged's contract on byte flips
// that once broke it. "ring-entry-past-high-water" damages a fallback
// ring entry so that it names a slot past the high water: the guarded
// mark of the next collection must find the slot not live before it
// indexes its mark bitset (ROADMAP "Recovery is right by construction on
// faulty memory").
func TestRestoreDamagedImage(t *testing.T) {
	base := persistedImage(t)
	cases := []struct {
		name  string
		flips [][2]int // device offset, XOR mask
	}{
		{"ring-entry-past-high-water", [][2]int{{104, 0x3c}, {114, 0xb3}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dev := base.Clone()
			for _, f := range c.flips {
				xorByte(dev, f[0], byte(f[1]))
			}
			restoreDamaged(t, dev)
		})
	}
}

// FuzzRestoreImage XORs two bytes anywhere in a persisted image and holds
// the restore to restoreDamaged's contract.
func FuzzRestoreImage(f *testing.F) {
	base := persistedImage(f)
	f.Add(uint32(13), byte(0x01), uint32(0), byte(0))
	f.Add(uint32(18), byte(0x01), uint32(0), byte(0))
	f.Add(uint32(17), byte(0x10), uint32(0), byte(0))
	f.Add(uint32(21), byte(0x64), uint32(0), byte(0))
	f.Add(uint32(104), byte(0x3c), uint32(114), byte(0xb3))
	f.Fuzz(func(t *testing.T, off1 uint32, x1 byte, off2 uint32, x2 byte) {
		dev := base.Clone()
		xorByte(dev, int(off1%uint32(dev.Size())), x1)
		xorByte(dev, int(off2%uint32(dev.Size())), x2)
		restoreDamaged(t, dev)
	})
}

// TestRestoreIgnoresReservedBytes writes garbage into the reserved bytes
// 8–11 of every record slot of a persisted image. Restore and Validate
// must accept it as they do the clean image, the committed versions must
// decode to the same octants, and a step on each must commit the same
// digest.
func TestRestoreIgnoresReservedBytes(t *testing.T) {
	clean := persistedImage(t)
	dirty := clean.Clone()
	a, err := pmem.OpenArena(dirty)
	if err != nil {
		t.Fatal(err)
	}
	for h := pmem.Handle(1); uint32(h) <= a.HighWater(); h++ {
		off, _ := a.SlotRange(h)
		dirty.WriteU32(off+offReserved, 0x9e3779b9*uint32(h)|1)
	}
	var trees [2]*Tree
	var octs [2][]Octant
	for i, dev := range []*nvbm.Device{clean, dirty} {
		tr, _, err := RestoreWithReport(imageConfig(dev))
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("restored tree invalid: %v", err)
		}
		tr.ForEachCommittedNode(func(_ Ref, o *Octant) bool {
			octs[i] = append(octs[i], *o)
			return true
		})
		trees[i] = tr
	}
	if !slices.Equal(octs[0], octs[1]) {
		t.Fatalf("the committed versions decode differently: %d and %d octants", len(octs[0]), len(octs[1]))
	}
	for _, tr := range trees {
		tr.RefineWhere(sphere(0.5, 0.5, 0.5, 0.2, 0.1), 4)
		tr.Persist()
		if err := tr.Validate(); err != nil {
			t.Fatalf("tree invalid after refine and persist: %v", err)
		}
	}
	if c, d := commitDigest(trees[0]), commitDigest(trees[1]); c != d {
		t.Fatalf("committed digest %x, the clean image's %x", d, c)
	}
}
