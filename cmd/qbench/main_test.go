package main

import (
	"strings"
	"testing"
)

const singleCPU = `goos: linux
BenchmarkFig66            	       1	       780.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkFig68Matmul/pes-1 	       1	  1000 ns/op	  201878 simcycles	 10 B/op	 1 allocs/op
BenchmarkFig68Matmul/pes-4 	       1	  1000 ns/op	   54969 simcycles	 3.672 speedup	 10 B/op	 1 allocs/op
PASS
`

const multiCPU = `goos: linux
BenchmarkFig66-8            	       1	       780.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkFig68Matmul/pes-1-8 	       1	  1000 ns/op	  201878 simcycles	 10 B/op	 1 allocs/op
BenchmarkFig68Matmul/pes-4-8 	       1	  1000 ns/op	   54969 simcycles	 3.672 speedup	 10 B/op	 1 allocs/op
PASS
`

// TestParseNormalizesProcSuffix checks the property the gate depends on: a
// GOMAXPROCS=1 run and a GOMAXPROCS=8 run of the same benchmarks parse to
// identical keys, and "pes-4" style names are never truncated.
func TestParseNormalizesProcSuffix(t *testing.T) {
	for _, tc := range []struct {
		name, out string
	}{{"single-cpu", singleCPU}, {"multi-cpu", multiCPU}} {
		rep, err := parse(strings.NewReader(tc.out))
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		want := map[string]int64{
			"BenchmarkFig68Matmul/pes-1": 201878,
			"BenchmarkFig68Matmul/pes-4": 54969,
		}
		if len(rep.Benchmarks) != len(want) {
			t.Fatalf("%s: parsed %v, want %v", tc.name, rep.Benchmarks, want)
		}
		for k, v := range want {
			if rep.Benchmarks[k] != v {
				t.Errorf("%s: %s = %d, want %d", tc.name, k, rep.Benchmarks[k], v)
			}
		}
	}
}

const hostBench = `goos: linux
BenchmarkHostMatmul/pes-1-8 	       5	  61000000 ns/op	  1201878.5 simInstrs/s	 10 B/op	 1 allocs/op
BenchmarkHostMatmul/pes-8-8 	       5	  17000000 ns/op	  2484010 simInstrs/s	  54969 wrongmetric	 10 B/op	 1 allocs/op
BenchmarkHostFFT/pes-8-8 	       5	   9800000 ns/op	  3661933 simInstrs/s	 10 B/op	 1 allocs/op
PASS
`

// TestParseMetricHost checks parseMetric on a real-valued metric, the
// simInstrs/s the BenchmarkHost* benchmarks report: it is extracted per
// benchmark, other metrics on the same line are ignored, and the
// GOMAXPROCS suffix is still normalized away.
func TestParseMetricHost(t *testing.T) {
	vals, err := parseMetric(strings.NewReader(hostBench), "simInstrs/s")
	if err != nil {
		t.Fatalf("parseMetric: %v", err)
	}
	want := map[string]float64{
		"BenchmarkHostMatmul/pes-1": 1201878.5,
		"BenchmarkHostMatmul/pes-8": 2484010,
		"BenchmarkHostFFT/pes-8":    3661933,
	}
	if len(vals) != len(want) {
		t.Fatalf("parsed %v, want %v", vals, want)
	}
	for k, v := range want {
		if vals[k] != v {
			t.Errorf("%s = %v, want %v", k, vals[k], v)
		}
	}
}

// TestCommonProcSuffix pins the heuristic's edge cases.
func TestCommonProcSuffix(t *testing.T) {
	for _, tc := range []struct {
		names []string
		want  string
	}{
		{[]string{"BenchmarkA-8", "BenchmarkB/pes-4-8"}, "-8"},
		{[]string{"BenchmarkA", "BenchmarkB/pes-4"}, ""},
		// Mixed endings mean the digits belong to the names, not GOMAXPROCS.
		{[]string{"BenchmarkB/pes-4", "BenchmarkB/pes-8"}, ""},
		{nil, ""},
	} {
		if got := commonProcSuffix(tc.names); got != tc.want {
			t.Errorf("commonProcSuffix(%v) = %q, want %q", tc.names, got, tc.want)
		}
	}
}
