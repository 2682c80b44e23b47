package service

import (
	"time"

	"queuemachine/internal/metrics"
	"queuemachine/internal/profile"
	"queuemachine/internal/sched"
)

// latencyBuckets are the upper bounds, in seconds, of the request-latency
// histograms. The spread covers cache hits (sub-millisecond) through
// deadline-bounded simulations (tens of seconds).
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 30}

// declareMetrics registers every family /metrics serves and keeps the
// counter and histogram handles the handlers increment; Stats reads the
// same handles, so /statsz and /metrics cannot disagree. The disk, peer
// and SLO families exist only when those tiers are configured.
func (s *Service) declareMetrics(reg *metrics.Registry) {
	s.compiles = reg.Counter("qmd_requests_total", "Requests received, by endpoint.", "endpoint", "compile")
	s.runs = reg.Counter("qmd_requests_total", "Requests received, by endpoint.", "endpoint", "run")
	s.rejected = reg.Counter("qmd_shed_total", "Requests rejected with 429 because the admission queue was full.")
	s.fails = reg.Counter("qmd_errors_total", "Requests answered with a non-shed error status.")
	s.cyclesServed = reg.Counter("qmd_sim_cycles_total", "Simulated cycles (makespans) served by successful runs.")
	s.causeCycles = reg.CounterVec("qmd_profiled_cycles_total",
		"PE-cycles of profiled runs, and the message-processor and ring lanes' busy cycles, by cause.",
		"cause", profile.AccountedCauses()...)
	s.instrsServed = reg.Counter("qmd_sim_instructions_total", "Simulated instructions served by successful runs.")
	s.schedRuns = reg.CounterVec("qmd_sched_runs_total", "Successful runs by scheduling policy.",
		"policy", sched.Names()...)
	s.schedMigrations = reg.Counter("qmd_sched_migrations_total",
		"Contexts placed on a processing element other than their parent's.")
	s.schedSteals = reg.Counter("qmd_sched_steals_total", "Contexts re-homed by a work-stealing dispatch.")

	reg.CounterFunc("qmd_cache_hits_total", "Artifact cache hits.",
		func() float64 { return float64(s.cache.stats().Hits) })
	reg.CounterFunc("qmd_cache_misses_total", "Artifact cache misses.",
		func() float64 { return float64(s.cache.stats().Misses) })
	reg.CounterFunc("qmd_cache_evictions_total", "Artifact cache evictions.",
		func() float64 { return float64(s.cache.stats().Evictions) })
	reg.Gauge("qmd_cache_entries", "Artifacts resident in the cache.",
		func() float64 { return float64(s.cache.stats().Entries) })
	reg.Gauge("qmd_cache_capacity", "Artifact cache capacity.",
		func() float64 { return float64(s.cache.stats().Capacity) })

	const coalescedHelp = "Requests answered by joining another request's " +
		"in-flight execution; never double-counted as cache hits."
	s.coalescedCompiles = reg.Counter("qmd_coalesced_total", coalescedHelp, "endpoint", "compile")
	s.coalescedRuns = reg.Counter("qmd_coalesced_total", coalescedHelp, "endpoint", "run")
	reg.Gauge("qmd_flights_in_flight", "Distinct executions currently coalescing.",
		func() float64 { return float64(s.flights.inFlight()) })

	if d := s.disk; d != nil {
		reg.CounterFunc("qmd_disk_cache_hits_total", "Artifacts loaded from the disk tier.",
			func() float64 { return float64(d.hits.Load()) })
		reg.CounterFunc("qmd_disk_cache_writes_total", "Artifacts persisted to the disk tier.",
			func() float64 { return float64(d.writes.Load()) })
		reg.CounterFunc("qmd_disk_cache_errors_total", "Disk-tier read/write failures "+
			"(each degrades to a recompile, never a failed request).",
			func() float64 { return float64(d.errors.Load()) })
		reg.Gauge("qmd_disk_cache_entries", "Artifacts resident on disk.",
			func() float64 { return float64(d.stats().Entries) })
	}
	if s.ring != nil {
		s.peerFetches = reg.Counter("qmd_peer_fetches_total", "Artifact fetches attempted against the owning peer.")
		s.peerHits = reg.Counter("qmd_peer_hits_total", "Peer fetches that returned a usable artifact.")
		s.peerErrors = reg.Counter("qmd_peer_errors_total", "Peer fetches that failed and degraded to a local compile.")
	}
	s.slo.Register(reg, "qmd")
	s.traces.Register(reg, "qmd")

	reg.Gauge("qmd_pool_workers", "Worker pool size.", func() float64 { return float64(s.cfg.Workers) })
	reg.Gauge("qmd_pool_in_flight", "Jobs currently executing.",
		func() float64 { return float64(s.pool.inFlight.Load()) })
	reg.Gauge("qmd_pool_queued", "Jobs waiting in the admission queue.",
		func() float64 { return float64(s.pool.queued()) })
	reg.Gauge("qmd_pool_queue_capacity", "Admission queue capacity.",
		func() float64 { return float64(s.pool.capacity()) })
	reg.Gauge("qmd_host_mips", "Service-lifetime average simulator throughput, "+
		"million simulated instructions per host second.", s.hostMIPS)
	reg.Gauge("qmd_draining", "1 while the service is draining, else 0.", func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	reg.Gauge("qmd_uptime_seconds", "Seconds since the service started.",
		func() float64 { return time.Since(s.start).Seconds() })

	s.compileSeconds = reg.Histogram("qmd_request_seconds", "Request latency, by endpoint.",
		latencyBuckets, "endpoint", "compile")
	s.runSeconds = reg.Histogram("qmd_request_seconds", "Request latency, by endpoint.",
		latencyBuckets, "endpoint", "run")
}

// hostMIPS is the service-lifetime average simulator throughput: million
// simulated instructions per host second spent inside the simulator.
func (s *Service) hostMIPS() float64 {
	secs := s.simTime().Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(s.instrsServed.Load()) / secs / 1e6
}

func (s *Service) simTime() time.Duration { return time.Duration(s.simNanos.Load()) }
