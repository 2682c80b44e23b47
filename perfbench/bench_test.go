package main

import (
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"queuemachine/internal/workloads"
)

// TestTamperedRepliesCountAsFailed drives one op through an honest gate
// and through gates whose answers are corrupted: a cycle count off by one
// and a 500. Only the honest answer may pass the oracle.
func TestTamperedRepliesCountAsFailed(t *testing.T) {
	f, err := bootFleet(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	c := newClient(2)
	defer c.tr.CloseIdleConnections()
	o := newOp(workloads.MatMul(2).Source, 2)
	if err := o.computeOracle(); err != nil {
		t.Fatal(err)
	}
	if msg := selfTest(f, c, o); msg != "" {
		t.Fatal(msg)
	}
	honest := f.front
	for _, mode := range []string{"none", "cycles", "500"} {
		rep := newReport()
		s := &server{f: f, c: c, rep: rep, served: map[*op]bool{}}
		if mode != "none" {
			f.front = httptest.NewServer(tamper(f.gate.Handler(), mode))
		}
		s.exchange(o, "", "")
		if f.front != honest {
			f.front.Close()
			f.front = honest
		}
		wantFailed := int64(1)
		if mode == "none" {
			wantFailed = 0
		}
		if rep.Attempted != 1 || rep.Failed != wantFailed || rep.Correct != (wantFailed == 0) {
			t.Errorf("%s: attempted %d failed %d correct %v, want 1, %d, %v",
				mode, rep.Attempted, rep.Failed, rep.Correct, wantFailed, wantFailed == 0)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.99, 3.97}} {
		if got := quantile(xs, tc.q); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

// TestServeCold runs the cold workload, which BENCHMARK.json does not
// gate, briefly untraced and traced: every reply must match its oracle
// and every metric must be reported.
func TestServeCold(t *testing.T) {
	if testing.Short() {
		t.Skip("boots three fleets per mode")
	}
	for _, traced := range []bool{false, true} {
		rep, err := runServeCold(options{workload: "serve-cold", seed: 1,
			measure: 2 * time.Second, traced: traced, out: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 {
			t.Errorf("traced=%v: %d of %d failed: %v", traced, rep.Failed, rep.Attempted, rep.Problems)
		}
		defs := slices.Concat(endToEnd, unbounded)
		if traced {
			defs = perLayer
		}
		for _, d := range defs {
			if _, ok := rep.Values[d.name]; !ok {
				t.Errorf("traced=%v: %s not reported", traced, d.name)
			}
		}
	}
}
