package core

import (
	"strings"
	"testing"

	"pmoctree/internal/morton"
	"pmoctree/internal/nvbm"
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

// FuzzRestoreImage XORs two bytes anywhere in a persisted image and
// restores it with deep verification. Restore may reject the image; a
// tree it hands back must validate, survive an allocating refine and a
// persist, and validate again. The restore keeps no versions: GC then
// never walks the fallback ring, whose damaged entries its guarded mark
// does not yet survive (ROADMAP "Recovery is right by construction on
// faulty memory").
func FuzzRestoreImage(f *testing.F) {
	base := persistedImage(f)
	f.Add(uint32(13), byte(0x01), uint32(0), byte(0))
	f.Add(uint32(18), byte(0x01), uint32(0), byte(0))
	f.Add(uint32(17), byte(0x10), uint32(0), byte(0))
	f.Add(uint32(21), byte(0x64), uint32(0), byte(0))
	f.Fuzz(func(t *testing.T, off1 uint32, x1 byte, off2 uint32, x2 byte) {
		dev := base.Clone()
		xorByte(dev, int(off1%uint32(dev.Size())), x1)
		xorByte(dev, int(off2%uint32(dev.Size())), x2)
		tr, _, err := RestoreWithReport(Config{NVBMDevice: dev, DRAMBudgetOctants: 16, VerifyRestore: true})
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
	})
}
