package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRunProfileOptIn checks the /run profiling contract: stats carry an
// attribution profile only when the request asks for one, the attribution
// sums exactly to PEs × cycles, and the cumulative cause totals surface in
// /statsz and as qmd_profiled_cycles_total{cause} in /metrics, a family of
// their own, apart from the makespan counter qmd_sim_cycles_total.
func TestRunProfileOptIn(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	var plain runResponse
	if code, raw := post(t, ts.URL+"/run", runRequest{Source: sumSquares, PEs: 2}, &plain); code != 200 {
		t.Fatalf("run: %d %s", code, raw)
	}
	if plain.Stats.Profile != nil {
		t.Error("unprofiled run carries a profile")
	}

	var profiled runResponse
	if code, raw := post(t, ts.URL+"/run",
		runRequest{Source: sumSquares, PEs: 2, Profile: true}, &profiled); code != 200 {
		t.Fatalf("profiled run: %d %s", code, raw)
	}
	prof := profiled.Stats.Profile
	if prof == nil {
		t.Fatal("profile=true run has no profile")
	}
	if profiled.Stats.Cycles != plain.Stats.Cycles {
		t.Errorf("profiling changed the simulation: %d cycles vs %d",
			profiled.Stats.Cycles, plain.Stats.Cycles)
	}
	var sum int64
	for _, v := range prof.Causes {
		sum += v
	}
	want := int64(prof.PEs) * prof.Cycles
	if sum != want {
		t.Errorf("attribution sums to %d, want %d PEs × %d = %d", sum, prof.PEs, prof.Cycles, want)
	}
	if prof.CriticalPath == nil {
		t.Error("profile has no critical path")
	}

	var st ServiceStats
	if code := get(t, ts.URL+"/statsz", &st); code != 200 {
		t.Fatalf("GET /statsz: status %d", code)
	}
	var causeSum int64
	for _, v := range st.CycleCauses {
		causeSum += v
	}
	if causeSum < want {
		t.Errorf("/statsz cycle_causes total %d, want at least the profiled run's %d", causeSum, want)
	}

	m := scrape(t, ts.URL)
	if got := m["qmd_sim_cycles_total"]; got != float64(st.CyclesServed) {
		t.Errorf("unlabelled qmd_sim_cycles_total = %v, statsz cycles_served %d", got, st.CyclesServed)
	}
	for cause, v := range st.CycleCauses {
		key := fmt.Sprintf("qmd_profiled_cycles_total{cause=%q}", cause)
		if got := m[key]; got != float64(v) {
			t.Errorf("%s = %v, statsz says %d", key, got, v)
		}
	}
	if _, ok := m[`qmd_profiled_cycles_total{cause="execute"}`]; !ok {
		t.Error(`qmd_profiled_cycles_total{cause="execute"} missing after a profiled run`)
	}
	for key := range m {
		if strings.HasPrefix(key, "qmd_sim_cycles_total{") {
			t.Errorf("%s: qmd_sim_cycles_total carries labelled series", key)
		}
	}
}

// TestAccessLog drives requests through the structured-logging middleware
// and checks each line carries the request id, route, status, duration,
// and the cache hit/miss of requests the artifact cache served.
func TestAccessLog(t *testing.T) {
	svc, _ := newTestServer(t, Config{Workers: 2})
	var buf bytes.Buffer
	logged := httptest.NewServer(AccessLog(
		slog.New(slog.NewJSONHandler(&buf, nil)), svc.Handler()))
	t.Cleanup(logged.Close)

	if code, raw := post(t, logged.URL+"/run", runRequest{Source: sumSquares, PEs: 2}, nil); code != 200 {
		t.Fatalf("run: %d %s", code, raw)
	}
	if code, raw := post(t, logged.URL+"/run", runRequest{Source: sumSquares, PEs: 2}, nil); code != 200 {
		t.Fatalf("run: %d %s", code, raw)
	}
	if code := get(t, logged.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	if code, _ := post(t, logged.URL+"/run", runRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("malformed run: %d, want 400", code)
	}

	type line struct {
		Msg      string  `json:"msg"`
		ID       uint64  `json:"id"`
		Route    string  `json:"route"`
		Status   int     `json:"status"`
		Duration float64 `json:"duration"`
		Cache    string  `json:"cache"`
		Level    string  `json:"level"`
	}
	var lines []line
	ids := map[uint64]bool{}
	for _, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var l line
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", raw, err)
		}
		if l.Msg != "request" {
			continue
		}
		if l.ID == 0 || ids[l.ID] {
			t.Errorf("request id %d missing or repeated", l.ID)
		}
		ids[l.ID] = true
		if l.Route == "" || l.Status == 0 {
			t.Errorf("incomplete log line %+v", l)
		}
		lines = append(lines, l)
	}
	if len(lines) != 4 {
		t.Fatalf("logged %d request lines, want 4", len(lines))
	}
	// First run compiles (cache miss), second hits.
	if lines[0].Cache != "miss" || lines[1].Cache != "hit" {
		t.Errorf("cache attrs = %q, %q; want miss, hit", lines[0].Cache, lines[1].Cache)
	}
	if lines[0].Route != "POST /run" || lines[2].Route != "GET /healthz" {
		t.Errorf("routes = %q, %q", lines[0].Route, lines[2].Route)
	}
	// The malformed request logs at warn with its 400.
	if lines[3].Status != http.StatusBadRequest || lines[3].Level != "WARN" {
		t.Errorf("error line = %+v, want status 400 at WARN", lines[3])
	}
}
