package gate

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"queuemachine/internal/compile"
	"queuemachine/internal/fleet"
	"queuemachine/internal/service"
	"queuemachine/internal/xtrace"
)

// exposition is one linted /metrics document: each family's TYPE and
// every sample keyed "name{labels}".
type exposition struct {
	types   map[string]string
	samples map[string]float64
}

var leLabel = regexp.MustCompile(`(^|,)le="([^"]*)"`)

// family names the family a sample belongs to: a histogram's _bucket,
// _sum and _count samples belong to the histogram.
func (e exposition) family(name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && e.types[base] == "histogram" {
			return base
		}
	}
	return name
}

// scrapeLinted fetches url's /metrics and checks the exposition rules:
// every family has exactly one HELP and one TYPE line; every sample
// belongs to a declared family and no series appears twice; every
// histogram series has buckets cumulative in ascending bound order, a
// +Inf bucket equal to _count, and a _sum.
func scrapeLinted(t *testing.T, url string) exposition {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET %s/metrics: %v", url, err)
	}
	defer resp.Body.Close()
	e := exposition{types: map[string]string{}, samples: map[string]float64{}}
	helps, typeLines := map[string]int{}, map[string]int{}
	type bucket struct {
		le  float64
		cum float64
	}
	buckets := map[string][]bucket{} // histogram series → buckets in document order
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			helps[name]++
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			typeLines[name]++
			e.types[name] = typ
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(val, 64)
		if !ok || err != nil {
			t.Errorf("%s: malformed sample %q", url, line)
			continue
		}
		if _, dup := e.samples[key]; dup {
			t.Errorf("%s: series %s appears twice", url, key)
		}
		e.samples[key] = v
		name, labels, _ := strings.Cut(strings.TrimSuffix(key, "}"), "{")
		fam := e.family(name)
		if _, ok := e.types[fam]; !ok {
			t.Errorf("%s: sample %s has no HELP/TYPE family before it", url, key)
		}
		if base, ok := strings.CutSuffix(name, "_bucket"); ok && fam == base {
			m := leLabel.FindStringSubmatch(labels)
			if m == nil {
				t.Errorf("%s: bucket %s has no le label", url, key)
				continue
			}
			le, err := strconv.ParseFloat(m[2], 64) // ParseFloat reads "+Inf"
			if err != nil {
				t.Errorf("%s: bucket %s: bad le: %v", url, key, err)
			}
			series := base + "{" + strings.TrimPrefix(leLabel.ReplaceAllString(labels, ""), ",") + "}"
			buckets[series] = append(buckets[series], bucket{le, v})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("%s: read /metrics: %v", url, err)
	}
	for fam := range e.types {
		if helps[fam] != 1 || typeLines[fam] != 1 {
			t.Errorf("%s: family %s has %d HELP and %d TYPE lines, want 1 and 1",
				url, fam, helps[fam], typeLines[fam])
		}
	}
	for fam := range helps {
		if _, ok := e.types[fam]; !ok {
			t.Errorf("%s: HELP for %s without a TYPE", url, fam)
		}
	}
	for series, bs := range buckets {
		base, labels, _ := strings.Cut(series, "{")
		suffix := "{" + labels
		if suffix == "{}" {
			suffix = ""
		}
		for i := 1; i < len(bs); i++ {
			if bs[i].le <= bs[i-1].le || bs[i].cum < bs[i-1].cum {
				t.Errorf("%s: %s buckets not cumulative at le=%g", url, series, bs[i].le)
			}
		}
		last := bs[len(bs)-1]
		count, hasCount := e.samples[base+"_count"+suffix]
		if !math.IsInf(last.le, 1) || !hasCount || last.cum != count {
			t.Errorf("%s: %s +Inf bucket %v (le=%g) != _count %v", url, series, last.cum, last.le, count)
		}
		if _, ok := e.samples[base+"_sum"+suffix]; !ok {
			t.Errorf("%s: %s has no _sum", url, series)
		}
	}
	return e
}

// checkMonotonic: between two scrapes of one daemon, no counter,
// histogram bucket or _count decreases or disappears.
func checkMonotonic(t *testing.T, url string, before, after exposition) {
	t.Helper()
	for key, v := range before.samples {
		name, _, _ := strings.Cut(key, "{")
		fam := before.family(name)
		monotone := before.types[fam] == "counter" ||
			(before.types[fam] == "histogram" && !strings.HasSuffix(name, "_sum"))
		if !monotone {
			continue
		}
		now, ok := after.samples[key]
		if !ok {
			t.Errorf("%s: %s disappeared between scrapes", url, key)
		} else if now < v {
			t.Errorf("%s: %s fell from %v to %v", url, key, v, now)
		}
	}
}

func postJSON(t *testing.T, url string, body any) int {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestMetricsExposition lints both daemons' /metrics: a gate over two
// peered replicas, each with every optional tier (disk, peer, SLOs)
// configured, scraped twice with traffic in between.
func TestMetricsExposition(t *testing.T) {
	var urls []string
	var lates []*lateHandler
	for i := 0; i < 2; i++ {
		lh := &lateHandler{}
		ts := httptest.NewServer(lh)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
		lates = append(lates, lh)
	}
	slos := []xtrace.Objective{{Route: "run", P99: 0}, {Route: "compile", P99: 1 << 40}}
	for i := range urls {
		svc, err := service.New(service.Config{
			Workers:  2,
			CacheDir: t.TempDir(),
			Self:     urls[i],
			Peers:    urls,
			SLOs:     slos,
		})
		if err != nil {
			t.Fatalf("service.New: %v", err)
		}
		lates[i].set(svc.Handler())
	}
	g, err := New(Config{Replicas: urls, SLOs: slos})
	if err != nil {
		t.Fatal(err)
	}
	gateSrv := httptest.NewServer(g.Handler())
	t.Cleanup(gateSrv.Close)
	daemons := append([]string{gateSrv.URL}, urls...)

	runs := 0
	traffic := func(round int) {
		for i := 0; i < 4; i++ {
			src := fmt.Sprintf("var v[1]:\nseq\n  v[0] := %d\n", 10*round+i)
			if code := postJSON(t, gateSrv.URL+"/compile", map[string]any{"source": src}); code != 200 {
				t.Fatalf("compile: status %d", code)
			}
			if code := postJSON(t, gateSrv.URL+"/run", map[string]any{
				"source": src, "pes": 2, "profile": i%2 == 0, "scheduler": "steal",
			}); code != 200 {
				t.Fatalf("run: status %d", code)
			}
			runs++
		}
		if code := postJSON(t, gateSrv.URL+"/run", map[string]any{}); code != http.StatusBadRequest {
			t.Fatalf("malformed run: status %d, want 400", code)
		}
		runs++
	}

	traffic(1)
	first := map[string]exposition{}
	for _, url := range daemons {
		first[url] = scrapeLinted(t, url)
	}
	traffic(2)
	var served float64
	for _, url := range daemons {
		second := scrapeLinted(t, url)
		checkMonotonic(t, url, first[url], second)
		served += second.samples[`qmd_request_seconds_count{endpoint="run"}`]
	}
	// Every run reached exactly one replica's handler, errors included.
	if served != float64(runs) {
		t.Errorf("replicas observed %v runs, the gate proxied %d", served, runs)
	}
	for _, want := range []string{
		`qmd_sim_cycles_total`, `qmd_profiled_cycles_total{cause="execute"}`,
		`qmd_disk_cache_entries`, `qmd_peer_fetches_total`,
		`qmd_slo_slow_total{route="run"}`, `qmd_trace_committed_total`,
	} {
		if _, ok := first[urls[0]].samples[want]; !ok {
			t.Errorf("replica /metrics lacks %s", want)
		}
	}
	for _, want := range []string{
		`qgate_slo_slow_total{route="run"}`, `qgate_slo_errors_total{route="run"}`,
		`qgate_trace_committed_total`, `qgate_trace_resident`, `qgate_fleet_seconds_sum`,
	} {
		if _, ok := first[gateSrv.URL].samples[want]; !ok {
			t.Errorf("gate /metrics lacks %s", want)
		}
	}
}

// TestGateMetricsAgreeWithStatsz drives a fixed sequence through a gate
// (clean traffic, a failover past a dead replica, a request with every
// replica dead) and checks every gate counter /metrics serves against
// /statsz. The health loop is not started, so only the proxy path marks
// replicas dead and the counts are deterministic.
func TestGateMetricsAgreeWithStatsz(t *testing.T) {
	var servers []*httptest.Server
	var urls []string
	for i := 0; i < 2; i++ {
		svc, err := service.New(service.Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(ts.Close)
		servers = append(servers, ts)
		urls = append(urls, ts.URL)
	}
	g, err := New(Config{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	gateSrv := httptest.NewServer(g.Handler())
	t.Cleanup(gateSrv.Close)

	ring := fleet.NewRing(urls, 0)
	ownedBy := func(url string) string {
		for i := 0; ; i++ {
			src := fmt.Sprintf("var v[1]:\nseq\n  v[0] := %d\n", i)
			if ring.Owner(compile.Fingerprint(src, compile.Options{})) == url {
				return src
			}
		}
	}
	for _, url := range urls {
		if code := postJSON(t, gateSrv.URL+"/run", map[string]any{"source": ownedBy(url)}); code != 200 {
			t.Fatalf("run: status %d", code)
		}
	}
	if code := postJSON(t, gateSrv.URL+"/run", map[string]any{}); code != http.StatusBadRequest {
		t.Fatalf("malformed run: status %d", code)
	}
	servers[1].Close()
	if code := postJSON(t, gateSrv.URL+"/run", map[string]any{"source": ownedBy(urls[1])}); code != 200 {
		t.Fatalf("failover run: status %d", code)
	}
	servers[0].Close()
	if code := postJSON(t, gateSrv.URL+"/run", map[string]any{"source": ownedBy(urls[0])}); code != http.StatusBadGateway {
		t.Fatalf("unroutable run: status %d, want 502", code)
	}

	m := scrapeLinted(t, gateSrv.URL).samples
	resp, err := http.Get(gateSrv.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"qgate_requests_total":      st.Requests,
		"qgate_failovers_total":     st.Failovers,
		"qgate_unrouted_total":      st.Unrouted,
		"qgate_spills_total":        st.Spills,
		"qgate_live_replicas":       int64(st.LiveReplicas),
		"qgate_fleet_seconds_count": st.FleetLatency.Count,
	}
	for url, rs := range st.Replicas {
		want[fmt.Sprintf("qgate_replica_requests_total{replica=%q}", url)] = rs.Requests
		want[fmt.Sprintf("qgate_replica_5xx_total{replica=%q}", url)] = rs.Server5xx
		want[fmt.Sprintf("qgate_replica_transport_errors_total{replica=%q}", url)] = rs.TransportErrors
	}
	for key, v := range want {
		if got, ok := m[key]; !ok || got != float64(v) {
			t.Errorf("%s = %v (present %v), statsz says %d", key, got, ok, v)
		}
	}
	// The sequence itself: 5 requests, one failover, one unrouted, both
	// replicas dead, 4 answered (the 400 included), 2 transport errors.
	if st.Requests != 5 || st.Failovers != 1 || st.Unrouted != 1 || st.LiveReplicas != 0 ||
		st.FleetLatency.Count != 4 {
		t.Errorf("statsz = requests %d, failovers %d, unrouted %d, live %d, answered %d; want 5, 1, 1, 0, 4",
			st.Requests, st.Failovers, st.Unrouted, st.LiveReplicas, st.FleetLatency.Count)
	}
	var transport int64
	for _, rs := range st.Replicas {
		transport += rs.TransportErrors
	}
	if transport != 2 {
		t.Errorf("transport errors = %d, want 2", transport)
	}
}
