package load

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"queuemachine/internal/metrics"
	"queuemachine/internal/service"
	"queuemachine/internal/xtrace"
)

func TestCorpus(t *testing.T) {
	for _, name := range []string{"chapter6", "gen2", "all"} {
		progs, err := Corpus(name)
		if err != nil {
			t.Fatalf("Corpus(%q): %v", name, err)
		}
		if len(progs) < 2 {
			t.Errorf("Corpus(%q) has %d programs", name, len(progs))
		}
		seen := make(map[string]bool)
		for _, p := range progs {
			if p.Name == "" || p.Source == "" {
				t.Errorf("Corpus(%q) has empty program %+v", name, p)
			}
			if seen[p.Name] {
				t.Errorf("Corpus(%q) repeats %q", name, p.Name)
			}
			seen[p.Name] = true
		}
	}
	if _, err := Corpus("nope"); err == nil {
		t.Error("unknown corpus accepted")
	}
}

// TestRunAgainstFake checks the open-loop accounting against a trivially
// fast fake server, so the test is about the generator, not the simulator.
func TestRunAgainstFake(t *testing.T) {
	var got atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Add(1)
		w.Header().Set("X-Qmd-Cache", "hit")
		w.Write([]byte(`{"cached":true}`))
	}))
	defer ts.Close()

	rep, err := Run(context.Background(), ts.URL, Options{
		Rate:     200,
		Duration: 500 * time.Millisecond,
		PEs:      1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Offered < 50 {
		t.Errorf("offered = %d, expected ~100", rep.Offered)
	}
	if rep.Completed != got.Load() {
		t.Errorf("report completed = %d, server saw %d", rep.Completed, got.Load())
	}
	if rep.Sent != rep.Offered-rep.Dropped {
		t.Errorf("sent %d != offered %d - dropped %d", rep.Sent, rep.Offered, rep.Dropped)
	}
	if rep.Status["200"] != rep.Completed {
		t.Errorf("status map %v does not account for %d completions", rep.Status, rep.Completed)
	}
	if rep.Cache["hit"] != rep.Completed {
		t.Errorf("cache map %v missing hits", rep.Cache)
	}
	if rep.CacheHitRate != 1 {
		t.Errorf("cache hit rate = %g, want 1", rep.CacheHitRate)
	}
	if rep.Latency.Count != rep.Completed {
		t.Errorf("latency count = %d, want %d", rep.Latency.Count, rep.Completed)
	}
	var b strings.Builder
	rep.WriteText(&b)
	if !strings.Contains(b.String(), "p99") {
		t.Errorf("text report missing latency line:\n%s", b.String())
	}
}

// TestTraceSample: sampling every N-th request traces the 1st, N+1-th,
// 2N+1-th, ... request, so N=1 traces every request.
func TestTraceSample(t *testing.T) {
	for _, tc := range []struct {
		every int
		want  []int64
	}{
		{0, nil},
		{1, []int64{1, 2, 3, 4, 5, 6, 7, 8}},
		{3, []int64{1, 4, 7}},
	} {
		var got []int64
		for n := int64(1); n <= 8; n++ {
			if sampled(n, tc.every) {
				got = append(got, n)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("every %d: traced %v, want %v", tc.every, got, tc.want)
		}
	}

	var traced atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(xtrace.TraceHeader) != "" {
			traced.Add(1)
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	rep, err := Run(context.Background(), ts.URL, Options{
		Rate: 100, Duration: 200 * time.Millisecond, PEs: 1, TraceSample: 1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Sent == 0 || traced.Load() != rep.Sent || int64(len(rep.SampledTraces)) != rep.Sent {
		t.Errorf("-trace-sample 1: sent %d, server saw %d traced, report lists %d",
			rep.Sent, traced.Load(), len(rep.SampledTraces))
	}
}

// TestRunEndToEnd drives a real service at low rate: every response must
// be 2xx and the hot Zipf head must produce cache hits or coalescing.
func TestRunEndToEnd(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	rep, err := Run(context.Background(), ts.URL, Options{
		Rate:     40,
		Duration: time.Second,
		Skew:     1.5,
		PEs:      1,
		Corpus:   "chapter6",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if rep.Server5xx != 0 {
		t.Errorf("5xx responses: %d (%v)", rep.Server5xx, rep.Status)
	}
	if rep.TransportErrors != 0 {
		t.Errorf("transport errors: %d", rep.TransportErrors)
	}
	// With 25 programs, a hot Zipf head, and ~40 requests, repeats are
	// certain; each repeat is a hit or a coalesce.
	if rep.Cache["hit"]+rep.Cache["coalesced"] == 0 {
		t.Errorf("no cache hits or coalesced responses: %v", rep.Cache)
	}
}

// TestLatencyCountsGeneratorStall: a request that fires late, as behind a
// stalled generator, is timed from when it was due, so the stall shows in
// its latency instead of vanishing from the report.
func TestLatencyCountsGeneratorStall(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	col := &collector{
		status:   make(map[string]int64),
		cache:    make(map[string]int64),
		replicas: make(map[string]int64),
		hist:     metrics.NewLatencyHistogram(),
	}
	const stall = 200 * time.Millisecond
	due := time.Now().Add(-stall)
	fire(context.Background(), ts.Client(), ts.URL, []byte(`{}`), due, "", col)
	if col.completed != 1 {
		t.Fatalf("completed = %d, want 1", col.completed)
	}
	if got := col.hist.Max(); got < stall {
		t.Errorf("latency = %v, want at least the %v the request was late", got, stall)
	}
}
