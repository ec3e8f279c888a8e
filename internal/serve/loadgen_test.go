package serve

import (
	"flag"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func loadgenScript(t *testing.T) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "mix.json")
	if err := os.WriteFile(p, []byte(`["/v1/point?x=0.5","/v1/region?x0=0"]`), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func loadgenHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"ok":true}`))
	})
	return mux
}

// TestLoadgenOpenLoop: runs carry the arrival-schedule summary, serve
// the full request budget across the class histograms, and track the
// target rate.
func TestLoadgenOpenLoop(t *testing.T) {
	script := loadgenScript(t)
	h := loadgenHandler()
	for _, poisson := range []bool{false, true} {
		doc, err := Loadgen(h, script, LoadgenOptions{
			Clients:  3,
			Requests: 80,
			Rate:     4000,
			Poisson:  poisson,
			Seed:     7,
		})
		if err != nil {
			t.Fatal(err)
		}
		if doc.OpenLoop.TargetRPS != 4000 || doc.OpenLoop.Poisson != poisson {
			t.Fatalf("poisson=%v: open_loop = %+v", poisson, doc.OpenLoop)
		}
		if doc.OpenLoop.OfferedRPS <= 0 || doc.OpenLoop.ServedRPS <= 0 {
			t.Fatalf("poisson=%v: degenerate rates: %+v", poisson, doc.OpenLoop)
		}
		var total uint64
		for _, c := range doc.Classes {
			total += c.Count
		}
		if total != 80 {
			t.Fatalf("poisson=%v: %d responses measured, want 80", poisson, total)
		}
		if len(doc.Classes) != 2 {
			t.Fatalf("poisson=%v: classes = %v, want point and region", poisson, doc.Classes)
		}
	}
}

// TestLoadgenRejectsZeroRate: a run without a positive arrival rate is
// refused before any request, and the flag family reports it as a usage
// error.
func TestLoadgenRejectsZeroRate(t *testing.T) {
	script := loadgenScript(t)
	for _, rate := range []float64{0, -5, math.NaN()} {
		if _, err := Loadgen(loadgenHandler(), script, LoadgenOptions{Requests: 4, Rate: rate}); err == nil {
			t.Errorf("rate %v: run accepted", rate)
		}
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	lf := AddLoadFlags(fs)
	if err := fs.Parse([]string{"-loadgen"}); err != nil {
		t.Fatal(err)
	}
	if err := lf.Check(script); err == nil || !strings.Contains(err.Error(), "-loadgen-rate") {
		t.Errorf("-loadgen without -loadgen-rate: Check = %v", err)
	}
	if err := lf.Check(""); err == nil || !strings.Contains(err.Error(), "-script") {
		t.Errorf("-loadgen without -script: Check = %v", err)
	}
	if err := fs.Parse([]string{"-loadgen", "-loadgen-rate", "100"}); err != nil {
		t.Fatal(err)
	}
	if err := lf.Check(script); err != nil {
		t.Errorf("-loadgen -loadgen-rate 100: Check = %v", err)
	}
}
