package main

import (
	"bytes"
	"strings"
	"testing"
)

// No experiment id, an unknown one, or a bad flag is a usage error.
func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"fig99"},
		{"fig5", "nosuch"},
		{"-scale", "fig5"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("pmbench %q exited %d, want 2 (stderr %q)", args, code, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("pmbench %q wrote to stdout on a usage error: %q", args, out.String())
		}
	}
}

// fig5 at the default scale runs and prints its table.
func TestFig5PrintsTable(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"fig5"}, &out, &errb); code != 0 {
		t.Fatalf("pmbench fig5 exited %d: %s", code, errb.String())
	}
	for _, want := range []string{"Figure 5", "[fig5 completed in "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("fig5 output lacks %q:\n%s", want, out.String())
		}
	}
}
