// Package service turns the one-shot compile-and-simulate pipeline into a
// long-running serving layer: an HTTP/JSON API over the OCCAM compiler and
// the Chapter 6 multiprocessor simulator with a content-addressed artifact
// cache, a fixed worker pool behind a bounded admission queue, per-request
// deadlines, and graceful drain on shutdown.
//
// Endpoints:
//
//	POST /compile   OCCAM source → object program (cached by fingerprint)
//	POST /run       source or object → full simulation statistics
//	GET  /healthz   liveness (503 while draining)
//	GET  /statsz    service, queue, and cache counters (JSON)
//	GET  /metrics   the same counters in Prometheus text format, plus
//	                per-endpoint latency histograms
//	GET  /debugz/traces  the flight recorder: recently completed request
//	                traces plus retained slow/error outliers (JSON, or
//	                Chrome trace-event format with ?id=T&format=chrome)
//	GET  /debug/pprof/*  runtime profiles, only when Config.EnablePprof
//
// Compiled programs are keyed by compile.Fingerprint — the SHA-256 of
// (source, options) — and held in an in-memory LRU already loaded for the
// simulator, so a repeated compile or run of identical source touches
// neither the compiler nor the program loader. Overload is explicit: when
// the admission queue is full the service answers 429 with a Retry-After
// header instead of queueing unbounded work, and every job runs under a
// deadline wired through the simulator's RunContext so a cancelled or
// expired request aborts the event loop between events.
package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"queuemachine/internal/fleet"
	"queuemachine/internal/metrics"
	"queuemachine/internal/sim"
	"queuemachine/internal/xtrace"
)

// Config sizes the service. The zero value is usable: every field falls
// back to the default noted on it.
type Config struct {
	// Workers is the number of concurrent compile/simulate workers
	// (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue of jobs waiting for a worker;
	// beyond it requests are rejected with 429 (default: 4×Workers).
	QueueDepth int
	// CacheEntries is the program cache capacity (default: 128).
	CacheEntries int
	// MaxBodyBytes bounds request bodies (default: 1 MiB).
	MaxBodyBytes int64
	// DefaultTimeout is the per-request deadline when the request does not
	// name one (default: 30s). MaxTimeout caps client-requested deadlines
	// (default: 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxPEs caps the simulated machine size a request may ask for
	// (default: sim.MaxPEs).
	MaxPEs int
	// Sim is the base machine configuration; request params overlay it
	// (default: sim.DefaultParams()).
	Sim *sim.Params
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: the profiles expose internals and cost CPU while sampling.
	EnablePprof bool
	// CacheDir persists compiled artifacts to disk (content-addressed by
	// fingerprint, versioned by the compiler toolchain hash) so restarts
	// warm from disk instead of stampeding the compiler. Empty disables
	// persistence.
	CacheDir string
	// Self and Peers configure the peer-aware artifact tier: Peers is the
	// full replica set (Self included) sharing a consistent-hash ring
	// keyed by fingerprint, and Self is this replica's own base URL. A
	// replica that misses its memory and disk caches asks the owning peer
	// for the program before compiling it itself; the owner answers from
	// memory only and never compiles for a peer. Empty Peers disables
	// peering.
	Self  string
	Peers []string
	// Process names this replica in distributed traces — the process lane
	// a span renders under in a stitched view (default: "qmd"; cmd/qmd
	// sets it to the replica's own base URL when one is configured).
	Process string
	// TraceCapacity sizes the flight recorder's ring of recent traces and
	// TraceSlow its slow-outlier threshold; zero takes the recorder
	// defaults (256 traces, 1s). Tracing itself needs no enabling: a
	// request is traced when it arrives with an X-Qmd-Trace header, and an
	// untraced request pays one header lookup.
	TraceCapacity int
	TraceSlow     time.Duration
	// SLOs declares per-route latency objectives ("run" and "compile" are
	// the route names); burn-rate counters appear in /statsz and /metrics.
	// Empty disables SLO tracking entirely.
	SLOs []xtrace.Objective
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxPEs <= 0 {
		c.MaxPEs = sim.MaxPEs
	}
	if c.Sim == nil {
		p := sim.DefaultParams()
		c.Sim = &p
	}
	if c.Process == "" {
		c.Process = "qmd"
	}
	return c
}

// peerFetchTimeout bounds one peer fetch, and so how long a dead peer can
// hold a run's worker. The owner answers from memory, never after a
// compile or a worker, so a second covers a round trip and an encode.
const peerFetchTimeout = time.Second

// Service is one compile-and-simulate server instance.
type Service struct {
	cfg     Config
	cache   *programCache
	disk    *diskCache  // nil without Config.CacheDir
	ring    *fleet.Ring // nil without Config.Peers
	peers   *fleet.Client
	self    string
	pool    *pool
	flights flightGroup // singleflight over identical compiles and runs
	mux     *http.ServeMux
	start   time.Time
	workers string            // Config.Workers, sent in fleet.WorkersHeader
	metrics *metrics.Registry // behind /metrics; see declareMetrics
	tracer  *xtrace.Tracer
	traces  *xtrace.Recorder
	slo     *xtrace.SLOTracker // nil without Config.SLOs

	draining atomic.Bool

	// Counters and histograms registered on metrics. A coalesced
	// follower shares a leader's execution; it is counted as coalesced
	// and never as an artifact cache hit (the follower never consulted
	// the cache). The peer counters are nil without Config.Peers.
	compiles, runs, rejected, fails   *metrics.Counter
	cyclesServed, instrsServed        *metrics.Counter
	coalescedCompiles, coalescedRuns  *metrics.Counter
	peerFetches, peerHits, peerErrors *metrics.Counter
	schedMigrations, schedSteals      *metrics.Counter
	schedRuns                         *metrics.CounterVec // by resolved policy
	causeCycles                       *metrics.CounterVec // profiled runs, by cause
	compileSeconds, runSeconds        *metrics.Histogram

	// simNanos is the wall-clock time workers spent inside sim.RunContext;
	// /metrics shows it only through the derived qmd_host_mips.
	simNanos metrics.Counter
}

// New builds a service; it is ready to serve as soon as its Handler is
// mounted. It fails only on invalid fleet configuration or an unusable
// artifact cache directory.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:     cfg,
		cache:   newProgramCache(cfg.CacheEntries),
		pool:    newPool(cfg.Workers, cfg.QueueDepth),
		mux:     http.NewServeMux(),
		start:   time.Now(),
		workers: strconv.Itoa(cfg.Workers),
		metrics: metrics.NewRegistry(),
		traces: xtrace.NewRecorder(xtrace.RecorderConfig{
			Capacity:      cfg.TraceCapacity,
			SlowThreshold: cfg.TraceSlow,
		}),
		slo: xtrace.NewSLOTracker(cfg.SLOs),
	}
	s.tracer = xtrace.NewTracer(cfg.Process, s.traces)
	if cfg.CacheDir != "" {
		disk, err := openDiskCache(cfg.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		s.disk = disk
	}
	if len(cfg.Peers) > 0 {
		if cfg.Self == "" {
			return nil, fmt.Errorf("service: Peers configured without Self")
		}
		s.ring = fleet.NewRing(cfg.Peers, 0)
		if !s.ring.Contains(cfg.Self) {
			return nil, fmt.Errorf("service: Self %q is not in the peer list", cfg.Self)
		}
		s.self = cfg.Self
		s.peers = fleet.NewClient(peerFetchTimeout)
	}
	s.declareMetrics(s.metrics)
	s.mux.HandleFunc("POST /compile", s.handleCompile)
	s.mux.HandleFunc("POST /run", s.handleRun)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.Handle("GET /metrics", s.metrics)
	s.mux.HandleFunc("GET /debugz/traces", s.traces.ServeHTTP)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Handler is the service's HTTP interface. Handlers run behind a recover
// barrier: whatever bytes arrive, the answer is a structured 4xx document,
// never a dropped connection — panics on the worker pool are caught
// separately in execute.
func (s *Service) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil && rec != http.ErrAbortHandler {
				s.fails.Inc()
				doc := map[string]string{"error": fmt.Sprintf("request rejected: %v", rec)}
				if id := r.Header.Get(xtrace.TraceHeader); id != "" {
					doc["trace"] = id
				}
				// Best effort: if the handler already wrote a header this
				// is a no-op on the status line.
				writeJSON(w, http.StatusBadRequest, doc)
			}
		}()
		w.Header().Set(fleet.WorkersHeader, s.workers)
		if s.slo == nil {
			s.mux.ServeHTTP(w, r)
			return
		}
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		s.mux.ServeHTTP(rec, r)
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		// Routes are named without the slash ("run", "compile"); the
		// tracker ignores routes without a declared objective.
		s.slo.Observe(strings.TrimPrefix(r.URL.Path, "/"), time.Since(start), status)
	})
}

// Shutdown stops admitting work and drains in-flight jobs, waiting up to
// ctx's deadline. New requests are answered 503 immediately.
func (s *Service) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	return s.pool.shutdown(ctx)
}

// execute runs f on a pool worker, enforcing admission control and the
// request deadline. It returns errBusy when the queue is full and ctx's
// error when the deadline fires first (the worker's sim aborts through the
// same context).
func (s *Service) execute(ctx context.Context, f func(context.Context) (any, error)) (any, error) {
	type outcome struct {
		v   any
		err error
	}
	ch := make(chan outcome, 1)
	// The span covers the time between submission and a worker picking the
	// job up — on a loaded service this is where latency hides.
	_, wait := xtrace.StartSpan(ctx, "queue.wait")
	err := s.pool.submit(func() {
		wait.End()
		// The request may have expired while queued; don't start work
		// nobody is waiting for.
		if err := ctx.Err(); err != nil {
			ch <- outcome{nil, err}
			return
		}
		// A panic here is on a pool worker goroutine: unrecovered it takes
		// the whole process down, and it is almost always a property of the
		// submitted program, so answer it like any other rejected input.
		v, err := func() (v any, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = &httpError{http.StatusUnprocessableEntity,
						fmt.Sprintf("program rejected: %v", r)}
				}
			}()
			return f(ctx)
		}()
		ch <- outcome{v, err}
	})
	if err != nil {
		wait.EndErr(err)
		return nil, err
	}
	select {
	case o := <-ch:
		return o.v, o.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// deadline resolves a request's timeout in milliseconds (0 = default)
// against the configured default and ceiling.
func (s *Service) deadline(timeoutMS int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	return min(d, s.cfg.MaxTimeout)
}
