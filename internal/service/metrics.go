package service

import (
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
	"time"
)

// latencyBuckets are the upper bounds, in seconds, of the request-latency
// histograms. The spread covers cache hits (sub-millisecond) through
// deadline-bounded simulations (tens of seconds).
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 30}

// histogram is a fixed-bucket latency histogram with lock-free observation,
// exposed in Prometheus exposition format (cumulative bucket counts plus
// _sum and _count).
type histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sumNs  atomic.Int64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

func (h *histogram) observe(d time.Duration) {
	h.counts[sort.SearchFloat64s(h.bounds, d.Seconds())].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// observe records one request's latency on the endpoint's histogram; use as
// `defer s.observe(endpoint, time.Now())`.
func (s *Service) observe(endpoint string, start time.Time) {
	if h := s.latency[endpoint]; h != nil {
		h.observe(time.Since(start))
	}
}

// handleMetrics serves the service counters in Prometheus text exposition
// format (version 0.0.4). The counters are the same ones /statsz reports as
// JSON: after any fixed request sequence the two documents agree.
func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	counter := func(name, help string, pairs ...any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for i := 0; i < len(pairs); i += 2 {
			fmt.Fprintf(w, "%s%s %d\n", name, pairs[i], pairs[i+1])
		}
	}
	gauge := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}

	counter("qmd_requests_total", "Requests received, by endpoint.",
		`{endpoint="compile"}`, st.Compiles, `{endpoint="run"}`, st.Runs)
	counter("qmd_shed_total", "Requests rejected with 429 because the admission queue was full.",
		"", st.Rejected)
	counter("qmd_errors_total", "Requests answered with a non-shed error status.",
		"", st.Errors)
	counter("qmd_sim_cycles_total", "Simulated cycles served by successful runs; "+
		"cause-labelled series attribute profiled runs' PE-cycles (and the "+
		"message-processor and ring lanes' busy cycles) by cause.",
		"", st.CyclesServed)
	if len(st.CycleCauses) > 0 {
		causes := make([]string, 0, len(st.CycleCauses))
		for cause := range st.CycleCauses {
			causes = append(causes, cause)
		}
		sort.Strings(causes)
		for _, cause := range causes {
			fmt.Fprintf(w, "qmd_sim_cycles_total{cause=%q} %d\n", cause, st.CycleCauses[cause])
		}
	}
	counter("qmd_sim_instructions_total", "Simulated instructions served by successful runs.",
		"", st.InstructionsServed)
	if len(st.SchedRuns) > 0 {
		policies := make([]string, 0, len(st.SchedRuns))
		for p := range st.SchedRuns {
			policies = append(policies, p)
		}
		sort.Strings(policies)
		pairs := make([]any, 0, 2*len(policies))
		for _, p := range policies {
			pairs = append(pairs, fmt.Sprintf("{policy=%q}", p), st.SchedRuns[p])
		}
		counter("qmd_sched_runs_total", "Successful runs by scheduling policy.", pairs...)
	}
	counter("qmd_sched_migrations_total",
		"Contexts placed on a processing element other than their parent's.",
		"", st.SchedMigrations)
	counter("qmd_sched_steals_total",
		"Contexts re-homed by a work-stealing dispatch.",
		"", st.SchedSteals)
	counter("qmd_cache_hits_total", "Artifact cache hits.", "", st.Cache.Hits)
	counter("qmd_cache_misses_total", "Artifact cache misses.", "", st.Cache.Misses)
	counter("qmd_cache_evictions_total", "Artifact cache evictions.", "", st.Cache.Evictions)
	gauge("qmd_cache_entries", "Artifacts resident in the cache.", st.Cache.Entries)
	gauge("qmd_cache_capacity", "Artifact cache capacity.", st.Cache.Capacity)
	counter("qmd_coalesced_total", "Requests answered by joining another request's "+
		"in-flight execution; never double-counted as cache hits.",
		`{endpoint="compile"}`, st.CoalescedCompiles, `{endpoint="run"}`, st.CoalescedRuns)
	gauge("qmd_flights_in_flight", "Distinct executions currently coalescing.",
		st.FlightsInFlight)
	if st.Disk != nil {
		counter("qmd_disk_cache_hits_total", "Artifacts loaded from the disk tier.",
			"", st.Disk.Hits)
		counter("qmd_disk_cache_writes_total", "Artifacts persisted to the disk tier.",
			"", st.Disk.Writes)
		counter("qmd_disk_cache_errors_total", "Disk-tier read/write failures "+
			"(each degrades to a recompile, never a failed request).",
			"", st.Disk.Errors)
		gauge("qmd_disk_cache_entries", "Artifacts resident on disk.", st.Disk.Entries)
	}
	if st.Peer != nil {
		counter("qmd_peer_fetches_total", "Artifact fetches attempted against the owning peer.",
			"", st.Peer.Fetches)
		counter("qmd_peer_hits_total", "Peer fetches that returned a usable artifact.",
			"", st.Peer.Hits)
		counter("qmd_peer_errors_total", "Peer fetches that failed and degraded to a local compile.",
			"", st.Peer.Errors)
	}
	if len(st.SLOs) > 0 {
		reqPairs := make([]any, 0, 2*len(st.SLOs))
		slowPairs := make([]any, 0, 2*len(st.SLOs))
		errPairs := make([]any, 0, 2*len(st.SLOs))
		badPairs := make([]any, 0, 2*len(st.SLOs))
		for _, o := range st.SLOs {
			label := fmt.Sprintf("{route=%q}", o.Route)
			reqPairs = append(reqPairs, label, o.Requests)
			slowPairs = append(slowPairs, label, o.Slow)
			errPairs = append(errPairs, label, o.Errors)
			badPairs = append(badPairs, label, o.Bad)
		}
		counter("qmd_slo_requests_total", "Requests scored against a route objective.", reqPairs...)
		counter("qmd_slo_slow_total", "Requests over the route's latency objective.", slowPairs...)
		counter("qmd_slo_errors_total", "Requests answered 5xx on an objective route.", errPairs...)
		counter("qmd_slo_bad_total", "Requests burning error budget (slow or 5xx, counted once).", badPairs...)
		fmt.Fprintf(w, "# HELP qmd_slo_burn_rate Bad fraction over budget; 1 burns exactly at the objective.\n# TYPE qmd_slo_burn_rate gauge\n")
		for _, o := range st.SLOs {
			fmt.Fprintf(w, "qmd_slo_burn_rate{route=%q} %g\n", o.Route, o.BurnRate)
		}
	}
	counter("qmd_trace_committed_total", "Traces committed to the flight recorder.",
		"", st.Traces.Committed)
	counter("qmd_trace_evicted_total", "Traces aged off the recorder ring.",
		"", st.Traces.Evicted)
	gauge("qmd_trace_resident", "Traces resident in the recorder (ring plus outliers).",
		st.Traces.Resident+st.Traces.Outliers)
	gauge("qmd_pool_workers", "Worker pool size.", st.Workers)
	gauge("qmd_pool_in_flight", "Jobs currently executing.", st.InFlight)
	gauge("qmd_pool_queued", "Jobs waiting in the admission queue.", st.Queued)
	gauge("qmd_pool_queue_capacity", "Admission queue capacity.", st.QueueCapacity)
	gauge("qmd_host_mips", "Service-lifetime average simulator throughput, "+
		"million simulated instructions per host second.", st.HostMIPS)
	gauge("qmd_draining", "1 while the service is draining, else 0.", boolGauge(st.Draining))
	gauge("qmd_uptime_seconds", "Seconds since the service started.",
		fmt.Sprintf("%.3f", st.UptimeSeconds))

	fmt.Fprintf(w, "# HELP qmd_request_seconds Request latency, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE qmd_request_seconds histogram\n")
	for _, endpoint := range []string{"compile", "run"} {
		h := s.latency[endpoint]
		var cum int64
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "qmd_request_seconds_bucket{endpoint=%q,le=%q} %d\n",
				endpoint, formatBound(bound), cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		fmt.Fprintf(w, "qmd_request_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", endpoint, cum)
		fmt.Fprintf(w, "qmd_request_seconds_sum{endpoint=%q} %g\n",
			endpoint, time.Duration(h.sumNs.Load()).Seconds())
		fmt.Fprintf(w, "qmd_request_seconds_count{endpoint=%q} %d\n", endpoint, h.count.Load())
	}
}

func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}

// formatBound renders a bucket bound the way Prometheus clients do: shortest
// decimal form ("0.005", "1", "30").
func formatBound(b float64) string {
	return fmt.Sprintf("%g", b)
}
