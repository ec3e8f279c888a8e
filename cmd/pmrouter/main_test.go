package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"pmoctree"
	"pmoctree/internal/router"
)

const smokeScript = "testdata/smoke_queries.json"

// writeImage persists a few droplet steps to a temp image file.
func writeImage(t *testing.T) string {
	t.Helper()
	dev := pmoctree.NewNVBM()
	tree := pmoctree.Create(pmoctree.Config{NVBMDevice: dev, RetainVersions: 2})
	defer tree.Close()
	d := pmoctree.NewDroplet(pmoctree.DropletConfig{Steps: 6})
	tree.SetFeatures(pmoctree.WorkloadFeature(d, 1))
	for s := 1; s <= 6; s++ {
		pmoctree.Step(tree, d, s, 4)
		tree.SetFeatures(pmoctree.WorkloadFeature(d, s+1))
		tree.Persist()
	}
	path := filepath.Join(t.TempDir(), "run.img")
	if err := dev.PersistFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// pmrouter runs the command and returns its exit code, stdout and stderr.
func pmrouter(args ...string) (int, string, string) {
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestUsageErrors: conflicting or incomplete flags exit 2 with a message
// naming the problem, before any shard is built.
func TestUsageErrors(t *testing.T) {
	img := writeImage(t)
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-image", img, "-inproc", "2", "-images", img}, "mutually exclusive"},
		{[]string{"-shards", "http://localhost:1", "-images", img}, "mutually exclusive"},
		{[]string{"-inproc", "2"}, "-inproc needs -image"},
		{[]string{"-image", img, "-inproc", "2", "-loadgen", "-loadgen-rate", "100"}, "-loadgen needs -script"},
		{[]string{"-image", img, "-inproc", "2", "-loadgen", "-script", smokeScript}, "-loadgen-rate"},
		{[]string{"-image", img, "-inproc", "2", "-loadgen", "-loadgen-rate", "0", "-script", smokeScript}, "-loadgen-rate"},
		{[]string{}, "need -shards"},
		{[]string{"-no-such-flag"}, ""},
	} {
		code, _, stderr := pmrouter(tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.msg) {
			t.Errorf("pmrouter %v: exit %d, stderr %q; want exit 2 naming %q", tc.args, code, stderr, tc.msg)
		}
	}
}

// TestChaosReport: the router chaos soak passes and its report's paths
// line names the failover chain's steps, replica and stale, and no other
// fallback.
func TestChaosReport(t *testing.T) {
	code, out, stderr := pmrouter("-chaos", "-chaos-rounds", "4")
	if code != 0 {
		t.Fatalf("pmrouter -chaos: exit %d\n%s%s", code, out, stderr)
	}
	var keys []string
	for _, line := range strings.Split(out, "\n") {
		if fields := strings.Fields(line); len(fields) > 0 && fields[0] == "paths:" {
			for _, f := range fields[1:] {
				k, _, _ := strings.Cut(f, "=")
				keys = append(keys, k)
			}
		}
	}
	if got, want := strings.Join(keys, " "), "retries hedges replica stale breaker_opens"; got != want {
		t.Fatalf("paths line names %q, want %q; report:\n%s", got, want, out)
	}
}

// TestInprocMatchesMaterializedImages: materializing the spans in memory
// (-image -inproc 2) and restoring them from pmserve -materialize files
// (-images) serve the smoke script byte-identically, and the load
// generator runs open-loop over the same routed surface.
func TestInprocMatchesMaterializedImages(t *testing.T) {
	img := writeImage(t)
	dev, err := pmoctree.OpenDeviceFile(img)
	if err != nil {
		t.Fatal(err)
	}
	src, err := pmoctree.Restore(pmoctree.Config{NVBMDevice: dev})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var files []string
	for i, span := range router.UniformSpans(2) {
		shardDev := pmoctree.NewNVBM()
		shard, _, err := router.MaterializeShard(src, span, pmoctree.Config{NVBMDevice: shardDev}, nil)
		if err != nil {
			t.Fatal(err)
		}
		shard.Close()
		path := filepath.Join(t.TempDir(), fmt.Sprintf("shard%d.img", i))
		if err := shardDev.PersistFile(path); err != nil {
			t.Fatal(err)
		}
		files = append(files, path)
	}

	code, inproc, stderr := pmrouter("-image", img, "-inproc", "2", "-script", smokeScript)
	if code != 0 {
		t.Fatalf("-inproc: exit %d: %s", code, stderr)
	}
	code, images, stderr := pmrouter("-images", strings.Join(files, ","), "-script", smokeScript)
	if code != 0 {
		t.Fatalf("-images: exit %d: %s", code, stderr)
	}
	if inproc != images {
		t.Fatalf("-inproc and -images differ:\n%s\nvs\n%s", inproc, images)
	}
	if first := strings.SplitN(inproc, "\n", 2)[0]; first != `200 {"versions":[6],"latest":6}` {
		t.Fatalf("versions line %q, want only the committed step", first)
	}

	code, slo, stderr := pmrouter("-image", img, "-inproc", "2", "-script", smokeScript,
		"-loadgen", "-loadgen-rate", "2000", "-loadgen-requests", "26", "-loadgen-clients", "2")
	if code != 0 {
		t.Fatalf("-loadgen: exit %d: %s", code, stderr)
	}
	var doc struct {
		Classes  map[string]json.RawMessage `json:"classes"`
		OpenLoop struct {
			TargetRPS float64 `json:"target_rps"`
		} `json:"open_loop"`
	}
	if err := json.Unmarshal([]byte(slo), &doc); err != nil {
		t.Fatalf("SLO document: %v\n%s", err, slo)
	}
	if doc.OpenLoop.TargetRPS != 2000 || doc.Classes["point"] == nil {
		t.Fatalf("SLO document: %s", slo)
	}
}
