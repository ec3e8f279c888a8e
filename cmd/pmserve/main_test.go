package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmoctree"
)

const smokeScript = "testdata/smoke_queries.json"

// writeImage persists the run the CI smoke serves, droplet -steps 8
// -maxlevel 4 -retain 2 with droplet's defaults, to a temp image file.
func writeImage(t *testing.T) string {
	t.Helper()
	dev := pmoctree.NewNVBM()
	tree := pmoctree.Create(pmoctree.Config{NVBMDevice: dev, DRAMBudgetOctants: 2048, RetainVersions: 2})
	const steps = 8
	d := pmoctree.NewDroplet(pmoctree.DropletConfig{Steps: steps + 10, Jets: 1})
	tree.SetFeatures(pmoctree.WorkloadFeature(d, 1))
	for s := 1; s <= steps; s++ {
		pmoctree.Step(tree, d, s, 4)
		tree.SetFeatures(pmoctree.WorkloadFeature(d, s+1))
		tree.Persist()
	}
	tree.Flush()
	path := filepath.Join(t.TempDir(), "run.img")
	if err := dev.PersistFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// pmserve runs the command and returns its exit code, stdout and stderr.
func pmserve(args ...string) (int, string, string) {
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestUsageErrorsExit2: missing or conflicting flags, -loadgen misuse and
// a bad -materialize request exit 2 with a message naming the problem.
func TestUsageErrorsExit2(t *testing.T) {
	img := writeImage(t)
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{}, "-image is required"},
		{[]string{"-no-such-flag"}, ""},
		{[]string{"-image", img, "-loadgen", "-loadgen-rate", "100"}, "-loadgen needs -script"},
		{[]string{"-image", img, "-loadgen", "-script", smokeScript}, "-loadgen-rate"},
		{[]string{"-image", img, "-loadgen", "-loadgen-rate", "0", "-script", smokeScript}, "-loadgen-rate"},
		{[]string{"-image", img, "-materialize", "1/4"}, "-materialize needs -out"},
		{[]string{"-image", img, "-materialize", "4/4", "-out", filepath.Join(t.TempDir(), "s.img")}, "0 <= i < N"},
	} {
		code, _, stderr := pmserve(tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.msg) {
			t.Errorf("pmserve %v: exit %d, stderr %q; want exit 2 naming %q", tc.args, code, stderr, tc.msg)
		}
	}
	if code, _, stderr := pmserve("-image", filepath.Join(t.TempDir(), "missing.img")); code != 1 {
		t.Errorf("missing image: exit %d, stderr %q; want 1", code, stderr)
	}
}

// TestScriptMatchesGolden: the scripted queries over the smoke image
// answer byte for byte as the committed golden records.
func TestScriptMatchesGolden(t *testing.T) {
	code, out, stderr := pmserve("-image", writeImage(t), "-script", smokeScript)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	golden, err := os.ReadFile("testdata/smoke_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Fatalf("scripted run differs from the golden:\n%s\nwant:\n%s", out, golden)
	}
}
