package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Flag misuse and out-of-range flag values exit 2.
func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "sloshing", "-steps", "1"},
		{"-retain", "3", "-steps", "1"},
		{"-retain", "4", "-steps", "1"},
		{"-steps", "x"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("droplet %v exited %d, want 2 (stderr %q)", args, code, errb.String())
		}
	}
}

// A clean run prints one table row per step.
func TestRunPrintsOneRowPerStep(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-steps", "6", "-maxlevel", "4"}, &out, &errb); code != 0 {
		t.Fatalf("droplet exited %d: %s", code, errb.String())
	}
	rows := regexp.MustCompile(`(?m)^[1-9][0-9]* +[0-9]+ `).FindAllString(out.String(), -1)
	if len(rows) != 6 {
		t.Fatalf("%d table rows, want 6:\n%s", len(rows), out.String())
	}
}

// The per-step records do not depend on the worker count, wall time aside
// (the CI worker-invariance smoke, in process).
func TestMetricsWorkerInvariant(t *testing.T) {
	dir := t.TempDir()
	wallNs := regexp.MustCompile(`"wall_ns":[0-9]+,?`)
	var want string
	for _, w := range []string{"1", "2"} {
		path := filepath.Join(dir, "steps_w"+w+".jsonl")
		var out, errb bytes.Buffer
		if code := run([]string{"-steps", "8", "-maxlevel", "4", "-q", "-workers", w, "-metrics", path}, &out, &errb); code != 0 {
			t.Fatalf("-workers %s exited %d: %s", w, code, errb.String())
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got := wallNs.ReplaceAllString(string(b), "")
		if strings.Count(got, "\n") != 8 {
			t.Fatalf("-workers %s: %d records, want 8", w, strings.Count(got, "\n"))
		}
		if w == "1" {
			want = got
		} else if got != want {
			t.Fatalf("-workers 2 records differ from -workers 1:\n%s\nvs\n%s", got, want)
		}
	}
}
