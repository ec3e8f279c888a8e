package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"pmoctree"
)

// writeImage persists a small refined droplet-shell mesh to a temp file.
func writeImage(t *testing.T) string {
	t.Helper()
	dev := pmoctree.NewNVBM()
	tree := pmoctree.Create(pmoctree.Config{NVBMDevice: dev})
	defer tree.Close()
	tree.RefineWhere(func(c pmoctree.Code) bool {
		x, y, z := c.Center()
		r := math.Sqrt((x-0.5)*(x-0.5) + (y-0.5)*(y-0.5) + (z-0.5)*(z-0.5))
		return math.Abs(r-0.3) < c.Extent()
	}, 4)
	tree.Balance()
	tree.Persist()
	path := filepath.Join(t.TempDir(), "mesh.img")
	if err := dev.PersistFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTilesJSONMatchesRestoredTree: -tiles -json reports the tiling of the
// leaf index a tree restored from the same image lends out.
func TestTilesJSONMatchesRestoredTree(t *testing.T) {
	path := writeImage(t)
	var out bytes.Buffer
	if code := run([]string{"-tiles", "-json", path}, &out); code != 0 {
		t.Fatalf("meshstat exited %d", code)
	}
	if strings.Contains(out.String(), "gather") {
		t.Fatalf("report still names a gather: %s", out.String())
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}

	dev, err := pmoctree.OpenDeviceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := pmoctree.Restore(pmoctree.Config{NVBMDevice: dev})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	st := tree.LeafTiles()
	if !rep.Valid || rep.Elements != st.N() {
		t.Fatalf("report: valid %v, %d elements; the restored index holds %d leaves", rep.Valid, rep.Elements, st.N())
	}
	if rep.Tiles != st.Tiles() || rep.TileOccupancy != st.Occupancy() {
		t.Fatalf("report: %d tiles at occupancy %v; restored tree: %d at %v",
			rep.Tiles, rep.TileOccupancy, st.Tiles(), st.Occupancy())
	}
	tiles := 0
	for _, n := range rep.TileHistogram {
		tiles += n
	}
	if tiles != st.Tiles() {
		t.Fatalf("histogram counts %d tiles, want %d", tiles, st.Tiles())
	}
}

func TestRunExitCodes(t *testing.T) {
	if code := run(nil, io.Discard); code != 2 {
		t.Errorf("no image argument: exit %d, want 2", code)
	}
	if code := run([]string{filepath.Join(t.TempDir(), "missing.img")}, io.Discard); code != 1 {
		t.Errorf("missing image: exit %d, want 1", code)
	}
	var out bytes.Buffer
	if code := run([]string{"-tiles", writeImage(t)}, &out); code != 0 || !strings.Contains(out.String(), "occupancy") {
		t.Errorf("text report: exit %d, output %q", code, out.String())
	}
}
