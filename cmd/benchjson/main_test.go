package main

import "testing"

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
