package service

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// scrape fetches /metrics and parses the exposition text into a map from
// "name{labels}" to value, skipping comment lines.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	samples := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed metrics line %q", line)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		samples[key] = f
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan metrics: %v", err)
	}
	return samples
}

// formatBound renders a bucket bound the way the exposition writer does:
// shortest decimal form ("0.005", "1", "30").
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// TestMetricsEndpoint drives a fixed request sequence and checks that the
// Prometheus document agrees with /statsz — the acceptance criterion for
// the /metrics endpoint.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	// Fixed sequence: two compiles of the same source (miss, then hit),
	// two runs (each a cache hit on the compiled artifact), one malformed
	// run (an error), and one run of a fresh source (another miss).
	for i := 0; i < 2; i++ {
		if code, raw := post(t, ts.URL+"/compile", compileRequest{Source: sumSquares}, nil); code != 200 {
			t.Fatalf("compile %d: %d %s", i, code, raw)
		}
	}
	var run runResponse
	for i := 0; i < 2; i++ {
		if code, raw := post(t, ts.URL+"/run", runRequest{Source: sumSquares, PEs: 2}, &run); code != 200 {
			t.Fatalf("run %d: %d %s", i, code, raw)
		}
	}
	if code, _ := post(t, ts.URL+"/run", runRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("malformed run: status %d, want 400", code)
	}
	fresh := strings.Replace(sumSquares, "10", "11", 1)
	if code, raw := post(t, ts.URL+"/run", runRequest{Source: fresh}, nil); code != 200 {
		t.Fatalf("fresh run: %d %s", code, raw)
	}

	m := scrape(t, ts.URL)
	var st ServiceStats
	if code := get(t, ts.URL+"/statsz", &st); code != 200 {
		t.Fatalf("GET /statsz: status %d", code)
	}

	want := map[string]float64{
		`qmd_requests_total{endpoint="compile"}`:  float64(st.Compiles),
		`qmd_requests_total{endpoint="run"}`:      float64(st.Runs),
		"qmd_shed_total":                          float64(st.Rejected),
		"qmd_errors_total":                        float64(st.Errors),
		"qmd_sim_cycles_total":                    float64(st.CyclesServed),
		"qmd_sim_instructions_total":              float64(st.InstructionsServed),
		"qmd_host_mips":                           st.HostMIPS,
		"qmd_cache_hits_total":                    float64(st.Cache.Hits),
		"qmd_cache_misses_total":                  float64(st.Cache.Misses),
		"qmd_cache_evictions_total":               float64(st.Cache.Evictions),
		"qmd_cache_entries":                       float64(st.Cache.Entries),
		"qmd_cache_capacity":                      float64(st.Cache.Capacity),
		"qmd_pool_workers":                        float64(st.Workers),
		"qmd_pool_queue_capacity":                 float64(st.QueueCapacity),
		"qmd_draining":                            0,
		`qmd_coalesced_total{endpoint="compile"}`: float64(st.CoalescedCompiles),
		`qmd_coalesced_total{endpoint="run"}`:     float64(st.CoalescedRuns),
		"qmd_flights_in_flight":                   float64(st.FlightsInFlight),
	}
	for key, v := range want {
		got, ok := m[key]
		if !ok {
			t.Errorf("metric %s missing", key)
			continue
		}
		if got != v {
			t.Errorf("%s = %v, statsz says %v", key, got, v)
		}
	}

	// Sanity on the absolute values the fixed sequence implies.
	if st.Compiles != 2 || st.Runs != 4 || st.Errors != 1 {
		t.Errorf("statsz counters = compiles %d, runs %d, errors %d; want 2, 4, 1",
			st.Compiles, st.Runs, st.Errors)
	}
	if st.CyclesServed <= 0 {
		t.Errorf("cycles_served = %d, want > 0", st.CyclesServed)
	}
	if st.InstructionsServed <= 0 || st.SimSeconds <= 0 || st.HostMIPS <= 0 {
		t.Errorf("host throughput counters = instrs %d, sim_seconds %g, host_mips %g; want all > 0",
			st.InstructionsServed, st.SimSeconds, st.HostMIPS)
	}
	// Compile 1 misses; compile 2, run 1, and run 2 hit; the fresh run
	// misses again. Nothing in this sequential sequence coalesces, so the
	// hit/miss totals fully account for every cache consultation.
	if st.Cache.Hits != 3 || st.Cache.Misses != 2 {
		t.Errorf("cache hits %d misses %d; want 3, 2", st.Cache.Hits, st.Cache.Misses)
	}
	if st.CoalescedCompiles != 0 || st.CoalescedRuns != 0 {
		t.Errorf("sequential requests coalesced: compiles %d, runs %d",
			st.CoalescedCompiles, st.CoalescedRuns)
	}

	// Histograms: every request that reached a handler is observed, errors
	// included; the +Inf bucket equals the count.
	for endpoint, n := range map[string]float64{"compile": 2, "run": 4} {
		count := m[fmt.Sprintf("qmd_request_seconds_count{endpoint=%q}", endpoint)]
		inf := m[fmt.Sprintf("qmd_request_seconds_bucket{endpoint=%q,le=\"+Inf\"}", endpoint)]
		if count != n || inf != n {
			t.Errorf("%s histogram count %v, +Inf %v; want %v", endpoint, count, inf, n)
		}
	}
	// Buckets are cumulative: each bound's count never decreases.
	var prev float64
	for _, b := range latencyBuckets {
		key := fmt.Sprintf("qmd_request_seconds_bucket{endpoint=%q,le=%q}", "run", formatBound(b))
		cur, ok := m[key]
		if !ok {
			t.Fatalf("bucket %s missing", key)
		}
		if cur < prev {
			t.Errorf("bucket le=%g count %v < previous %v; not cumulative", b, cur, prev)
		}
		prev = cur
	}
}

func TestPprofGating(t *testing.T) {
	_, off := newTestServer(t, Config{})
	if code := get(t, off.URL+"/debug/pprof/cmdline", nil); code != http.StatusNotFound {
		t.Errorf("pprof disabled: /debug/pprof/cmdline status %d, want 404", code)
	}
	_, on := newTestServer(t, Config{EnablePprof: true})
	resp, err := http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("GET pprof: %v", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof enabled: status %d, want 200", resp.StatusCode)
	}
}
