package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

// TestScenariosMeshTheirLiquid: every scenario refines the root and starts
// with liquid in the mesh. The default dambreak used to run one cell with
// no liquid because its seed predicate sampled five points that all missed
// the corner the liquid sits in.
func TestScenariosMeshTheirLiquid(t *testing.T) {
	for _, scenario := range []string{"dambreak", "drop", "jet"} {
		t.Run(scenario, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-scenario", scenario, "-steps", "1"}, &out); err != nil {
				t.Fatal(err)
			}
			var cells int
			var liquid float64
			if _, err := fmt.Sscanf(out.String(), scenario+": %d cells, liquid volume %f", &cells, &liquid); err != nil {
				t.Fatalf("cannot parse %q: %v", out.String(), err)
			}
			if cells <= 1 || liquid <= 0 {
				t.Fatalf("degenerate run: %d cells, liquid volume %g", cells, liquid)
			}
			if !strings.Contains(out.String(), "step   1:") {
				t.Fatalf("no step line in %q", out.String())
			}
		})
	}
}

func TestRunRejectsDegenerateInput(t *testing.T) {
	// A level-0 mesh is the root cell alone, whose center is dry.
	if err := run([]string{"-maxlevel", "0"}, io.Discard); err == nil || !strings.Contains(err.Error(), "no liquid") {
		t.Errorf("zero-liquid run returned %v, want a no-liquid error", err)
	}
	if err := run([]string{"-scenario", "nope"}, io.Discard); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("unknown scenario returned %v", err)
	}
}
