package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkSolveParallel-8   \t 3 \t 401203100 ns/op \t 262144 cells \t 4 workers")
	if !ok {
		t.Fatal("line did not parse")
	}
	if r.Name != "BenchmarkSolveParallel-8" || r.Iters != 3 {
		t.Fatalf("got %+v", r)
	}
	want := map[string]float64{"ns/op": 401203100, "cells": 262144, "workers": 4}
	for k, v := range want {
		if r.Metrics[k] != v {
			t.Errorf("metric %s = %v, want %v", k, r.Metrics[k], v)
		}
	}
}

func TestParseLineRejectsGarbage(t *testing.T) {
	for _, line := range []string{"Benchmark", "BenchmarkX notanumber", ""} {
		if _, ok := parseLine(line); ok {
			t.Errorf("parsed %q", line)
		}
	}
}

func writeSLODoc(t *testing.T, path string, classes map[string]SLOClass) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := json.NewEncoder(f).Encode(SLODoc{Classes: classes}); err != nil {
		t.Fatal(err)
	}
}

func slo(p99 float64) SLOClass {
	return SLOClass{Count: 100, Quantiles: map[string]float64{"p50": p99 / 4, "p95": p99 / 2, "p99": p99}}
}

func TestCompareQuantiles(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	newPath := filepath.Join(dir, "new.json")
	const tol, floor = 0.25, 500_000.0

	// Within tolerance, plus a new and a vanished class: pass.
	writeSLODoc(t, basePath, map[string]SLOClass{"point": slo(4e6), "gone": slo(1e6)})
	writeSLODoc(t, newPath, map[string]SLOClass{"point": slo(4.5e6), "region": slo(9e6)})
	regressed, err := compareQuantiles(os.Stdout, basePath, newPath, tol, floor)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Error("+12.5% p99 flagged at 25% tolerance")
	}

	// Beyond the fraction AND the absolute floor: fail.
	writeSLODoc(t, newPath, map[string]SLOClass{"point": slo(8e6)})
	regressed, err = compareQuantiles(os.Stdout, basePath, newPath, tol, floor)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Error("+100% p99 (+4ms) not flagged")
	}

	// Beyond the fraction but under the absolute floor (80us -> 130us):
	// sub-millisecond jitter must not fail the gate.
	writeSLODoc(t, basePath, map[string]SLOClass{"point": slo(80_000)})
	writeSLODoc(t, newPath, map[string]SLOClass{"point": slo(130_000)})
	regressed, err = compareQuantiles(os.Stdout, basePath, newPath, tol, floor)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Error("+50us p99 flagged despite the 500us noise floor")
	}

	// Disjoint class sets: an error, not a silent pass.
	writeSLODoc(t, newPath, map[string]SLOClass{"agg": slo(1e6)})
	if _, err := compareQuantiles(os.Stdout, basePath, newPath, tol, floor); err == nil {
		t.Error("disjoint SLO documents compared without error")
	}

	// An empty document is rejected outright.
	writeSLODoc(t, newPath, nil)
	if _, err := compareQuantiles(os.Stdout, basePath, newPath, tol, floor); err == nil {
		t.Error("empty SLO document accepted")
	}
}
