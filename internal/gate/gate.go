// Package gate is the fleet front proxy: one HTTP endpoint that shards
// compile and run requests across a set of qmd replicas by artifact
// fingerprint on a consistent-hash ring.
//
// Sharding by fingerprint is what makes the replica tier a cache tier:
// every request for one program lands on the same replica, so that
// replica's in-memory LRU and singleflight group see the program's whole
// request stream, and the fleet as a whole compiles each distinct program
// once. The same ring (same vnode layout, same hash) runs inside the
// replicas for their peer-fetch tier, so gate routing and peer ownership
// agree about who owns a fingerprint.
//
// Replica failure is handled twice over: a background health loop probes
// /healthz and removes dead replicas from the ring (keys re-shard
// minimally, by consistent-hash construction), and a transport error on a
// proxied request marks the replica dead immediately and fails over to
// the next owner on the ring without surfacing the error to the client.
//
// Routing is also load-aware, after consistent hashing with bounded loads
// (Mirrokni, Thorup and Zadimoghaddam, SODA 2018): when every worker on a
// /run's owner is busy with this gate's requests and a later owner on the
// ring has one free, the request goes there first. The spill replica
// serves the program from its own tiers, fetching it from the owner's
// memory once, so locality is given up only while the owner is saturated.
package gate

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"queuemachine/internal/compile"
	"queuemachine/internal/fleet"
	"queuemachine/internal/metrics"
	"queuemachine/internal/xtrace"
)

// ReplicaHeader names the replica that served a proxied request, set on
// every proxied response. Tests and load generators use it to observe
// routing decisions without trusting gate-internal state.
const ReplicaHeader = "X-Qmd-Replica"

// Config sizes the gate. Replicas is the only required field.
type Config struct {
	// Replicas is the full set of qmd base URLs to shard across.
	Replicas []string
	// VirtualNodes per replica on the hash ring (default:
	// fleet.DefaultVirtualNodes). Must match the replicas' own ring
	// configuration for gate routing and peer ownership to agree.
	VirtualNodes int
	// HealthInterval is the probe period (default: 2s); HealthTimeout
	// bounds each probe (default: 1s).
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	// MaxBodyBytes bounds proxied request bodies (default: 1 MiB). The
	// gate reads the whole body before routing — it needs the bytes to
	// compute the shard key and to replay the request on failover.
	MaxBodyBytes int64
	// ProxyTimeout bounds one proxied request attempt (default: 150s,
	// above the replicas' 2m deadline ceiling so the replica's own
	// timeout fires first and its error document reaches the client).
	ProxyTimeout time.Duration
	// Process names the gate in distributed traces (default: "qgate").
	Process string
	// TraceCapacity and TraceSlow size the gate's own flight recorder;
	// zero takes the recorder defaults. The gate records its routing and
	// attempt spans here, and /debugz/traces?id=T stitches them together
	// with the replicas' spans into the fleet-wide view.
	TraceCapacity int
	TraceSlow     time.Duration
	// SLOs declares per-route latency objectives measured at the gate —
	// the client-visible numbers, failover and queueing included.
	SLOs []xtrace.Objective
}

func (c Config) withDefaults() Config {
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = fleet.DefaultVirtualNodes
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.ProxyTimeout <= 0 {
		c.ProxyTimeout = 150 * time.Second
	}
	if c.Process == "" {
		c.Process = "qgate"
	}
	return c
}

// replicaState is the gate's account of one replica; the counters and
// the histogram are handles on the gate's metrics registry.
type replicaState struct {
	requests  *metrics.Counter // proxied requests answered by this replica
	server5xx *metrics.Counter // of those, 5xx responses
	transport *metrics.Counter // connect/read failures (failed over)
	latency   *metrics.Histogram

	// workers is the worker count the replica last advertised in
	// fleet.WorkersHeader; 0 until it has answered once.
	workers atomic.Int64
	// inflight counts this gate's attempts on the replica from before the
	// request is sent until its relay ends, and bodies counts them by body
	// hash. Both are guarded by Gate.mu.
	inflight int
	bodies   map[uint64]int
}

// Gate is one front-proxy instance.
type Gate struct {
	cfg      Config
	ring     *fleet.Ring
	probe    *fleet.Client
	proxy    *http.Client
	mux      *http.ServeMux
	start    time.Time
	replicas map[string]*replicaState
	tracer   *xtrace.Tracer
	traces   *xtrace.Recorder
	slo      *xtrace.SLOTracker // nil without Config.SLOs
	metrics  *metrics.Registry  // behind /metrics

	mu   sync.Mutex   // guards every replicaState's inflight and bodies
	seed maphash.Seed // hashes request bodies for replicaState.bodies

	requests, failovers, unrouted, spills *metrics.Counter
}

// New builds a gate over the replica set. It fails only on an empty or
// duplicated replica list.
func New(cfg Config) (*Gate, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("gate: no replicas configured")
	}
	for i, r := range cfg.Replicas {
		if r == "" || slices.Contains(cfg.Replicas[:i], r) {
			return nil, fmt.Errorf("gate: empty or duplicate replica %q", r)
		}
	}
	g := &Gate{
		cfg:      cfg,
		ring:     fleet.NewRing(cfg.Replicas, cfg.VirtualNodes),
		probe:    fleet.NewClient(cfg.HealthTimeout),
		proxy:    &http.Client{Timeout: cfg.ProxyTimeout},
		mux:      http.NewServeMux(),
		start:    time.Now(),
		replicas: make(map[string]*replicaState, len(cfg.Replicas)),
		metrics:  metrics.NewRegistry(),
		seed:     maphash.MakeSeed(),
		traces: xtrace.NewRecorder(xtrace.RecorderConfig{
			Capacity:      cfg.TraceCapacity,
			SlowThreshold: cfg.TraceSlow,
		}),
		slo: xtrace.NewSLOTracker(cfg.SLOs),
	}
	g.tracer = xtrace.NewTracer(cfg.Process, g.traces)
	g.declareMetrics()
	g.mux.HandleFunc("POST /compile", func(w http.ResponseWriter, r *http.Request) {
		g.handleProxy(w, r, "/compile")
	})
	g.mux.HandleFunc("POST /run", func(w http.ResponseWriter, r *http.Request) {
		g.handleProxy(w, r, "/run")
	})
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /statsz", g.handleStatsz)
	g.mux.Handle("GET /metrics", g.metrics)
	g.mux.HandleFunc("GET /debugz/traces", g.handleTraces)
	return g, nil
}

// declareMetrics registers the gate's families, creating the replica
// states and the counters the proxy path increments; Snapshot reads the
// same handles, so /statsz and /metrics cannot disagree.
func (g *Gate) declareMetrics() {
	reg := g.metrics
	g.requests = reg.Counter("qgate_requests_total", "Requests accepted by the gate.")
	g.failovers = reg.Counter("qgate_failovers_total", "Proxy attempts re-routed past a dead replica.")
	g.unrouted = reg.Counter("qgate_unrouted_total", "Requests no replica could be reached for (502).")
	g.spills = reg.Counter("qgate_spills_total", "Runs sent first to a replica other than their ring owner.")
	reg.Gauge("qgate_live_replicas", "Replicas currently on the ring.",
		func() float64 { return float64(g.ring.LiveCount()) })
	for _, url := range slices.Sorted(slices.Values(g.cfg.Replicas)) {
		g.replicas[url] = &replicaState{
			requests: reg.Counter("qgate_replica_requests_total",
				"Proxied requests answered, by replica.", "replica", url),
			server5xx: reg.Counter("qgate_replica_5xx_total",
				"Proxied 5xx responses, by replica.", "replica", url),
			transport: reg.Counter("qgate_replica_transport_errors_total",
				"Transport failures, by replica.", "replica", url),
			latency: reg.Histogram("qgate_replica_seconds",
				"Proxied request latency, by replica.", metrics.LatencyBounds(), "replica", url),
			bodies: make(map[uint64]int),
		}
		reg.Gauge("qgate_replica_healthy", "1 while the replica passes health checks.", func() float64 {
			if g.ring.Alive(url) {
				return 1
			}
			return 0
		}, "replica", url)
	}
	// The fleet aggregate is the replicas' histograms merged, so the two
	// sets of series always sum consistently.
	reg.HistogramFunc("qgate_fleet_seconds",
		"Proxied request latency across all replicas (merged).", g.fleetLatency)
	g.slo.Register(reg, "qgate")
	g.traces.Register(reg, "qgate")
}

// Handler is the gate's HTTP interface.
func (g *Gate) Handler() http.Handler { return g.mux }

// Start launches the health-check loop; it stops when ctx is cancelled.
// The first sweep runs immediately so a replica that was down at boot is
// off the ring before the first request.
func (g *Gate) Start(ctx context.Context) {
	go func() {
		g.checkAll(ctx)
		t := time.NewTicker(g.cfg.HealthInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				g.checkAll(ctx)
			}
		}
	}()
}

// checkAll probes every replica concurrently and updates ring liveness.
func (g *Gate) checkAll(ctx context.Context) {
	var wg sync.WaitGroup
	for url := range g.replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probeCtx, cancel := context.WithTimeout(ctx, g.cfg.HealthTimeout)
			defer cancel()
			alive := g.probe.CheckHealth(probeCtx, url) == nil
			g.ring.SetAlive(url, alive)
		}()
	}
	wg.Wait()
}

// shardBody is the subset of the compile/run wire format that determines
// routing. Unknown fields are ignored: the gate must route every request
// the replicas accept, including ones from newer clients.
type shardBody struct {
	Source  string               `json:"source"`
	Options fleet.CompileOptions `json:"options"`
	Object  json.RawMessage      `json:"object"`
}

// shardKey maps a request body to its ring key. Source-bearing requests
// key by compile fingerprint — the same address the replicas' caches and
// peer ring use — so gate routing, cache residency, and peer ownership
// all name the same replica. Object-only runs and unparseable bodies fall
// back to a content hash: still deterministic, so repeats coalesce, just
// not shared with the compile namespace.
func shardKey(body []byte) string {
	var sb shardBody
	if err := json.Unmarshal(body, &sb); err == nil {
		if sb.Source != "" {
			return compile.Fingerprint(sb.Source, sb.Options.ToCompile())
		}
		if len(sb.Object) > 0 {
			sum := sha256.Sum256(sb.Object)
			return hex.EncodeToString(sum[:])
		}
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

func (g *Gate) handleProxy(w http.ResponseWriter, r *http.Request, path string) {
	g.requests.Inc()
	start := time.Now()
	status := &statusWriter{ResponseWriter: w}
	defer func() {
		st := status.status
		if st == 0 {
			st = http.StatusOK
		}
		g.slo.Observe(strings.TrimPrefix(path, "/"), time.Since(start), st)
	}()
	ctx, root := g.tracer.StartRequest(r, "proxy")
	defer root.End()
	if id := root.TraceID(); id != "" {
		w.Header().Set(xtrace.TraceHeader, string(id))
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		st := http.StatusBadRequest
		if errors.As(err, &tooBig) {
			st = http.StatusRequestEntityTooLarge
		}
		root.SetError(err)
		writeJSON(status, st, errorDoc(ctx, err.Error()))
		return
	}
	key := shardKey(body)
	owners := g.ring.Owners(key, len(g.cfg.Replicas))
	balance := path == "/run"
	if len(owners) == 0 {
		// Every replica is marked dead. Probing found nobody, but a
		// request is here now: try the full set in ring order rather
		// than refusing outright — a replica that just came back serves
		// it and the next health sweep revives the ring.
		owners = g.ring.Nodes()
		balance = false
	}
	sum := maphash.Bytes(g.seed, body)
	spill := g.route(owners, sum, balance)
	for i, replica := range owners {
		if i > 0 {
			g.failovers.Inc()
			g.claim(replica, sum)
			spill = ""
		}
		// Each attempt is its own span: a mid-request failover leaves two
		// routing spans under one trace, the dead replica's marked failed.
		served := g.tryReplica(ctx, status, r, replica, path, body, i, spill)
		g.release(replica, sum)
		if served {
			return
		}
		if r.Context().Err() != nil {
			return // client gone; retrying serves nobody
		}
	}
	g.unrouted.Inc()
	err = errors.New("no replica reachable")
	root.SetError(err)
	writeJSON(status, http.StatusBadGateway, errorDoc(ctx, err.Error()))
}

// route fixes the attempt order of one request and claims a slot on its
// first replica, under one lock so that concurrent requests see each
// other's claims. owners is in ring order and is reordered in place.
// With balance set (a /run on the live ring) two rules may move one later
// owner to the front, leaving the rest in failover order:
//   - a replica already relaying a byte-identical body comes first, so
//     the request coalesces with it there;
//   - otherwise, when the owner is saturated — its advertised workers are
//     all taken by this gate's attempts — the first later owner with a
//     free worker comes first.
//
// A replica that has not yet advertised its workers is never counted
// saturated or free. route returns the owner a moved request bypassed.
func (g *Gate) route(owners []string, sum uint64, balance bool) (spill string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if balance {
		pick := slices.IndexFunc(owners, func(o string) bool { return g.replicas[o].bodies[sum] > 0 })
		if pick < 0 && g.saturated(owners[0]) {
			for i := 1; i < len(owners) && pick < 0; i++ {
				if st := g.replicas[owners[i]]; int64(st.inflight) < st.workers.Load() {
					pick = i
				}
			}
		}
		if pick > 0 {
			spill = owners[0]
			moved := owners[pick]
			copy(owners[1:pick+1], owners[:pick])
			owners[0] = moved
			g.spills.Inc()
		}
	}
	g.claimLocked(owners[0], sum)
	return spill
}

// saturated reports whether replica is known to have no free worker for
// another of this gate's requests. The caller holds g.mu.
func (g *Gate) saturated(replica string) bool {
	st := g.replicas[replica]
	w := st.workers.Load()
	return w > 0 && int64(st.inflight) >= w
}

// claim counts an attempt on replica as in flight; release ends it.
func (g *Gate) claim(replica string, sum uint64) {
	g.mu.Lock()
	g.claimLocked(replica, sum)
	g.mu.Unlock()
}

func (g *Gate) claimLocked(replica string, sum uint64) {
	st := g.replicas[replica]
	st.inflight++
	st.bodies[sum]++
}

func (g *Gate) release(replica string, sum uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.replicas[replica]
	st.inflight--
	if st.bodies[sum]--; st.bodies[sum] == 0 {
		delete(st.bodies, sum)
	}
}

// errorDoc is a gate-originated error body; on a traced request it
// carries the trace id like the replicas' error documents do.
func errorDoc(ctx context.Context, msg string) map[string]string {
	doc := map[string]string{"error": msg}
	if id := xtrace.TraceIDFrom(ctx); id != "" {
		doc["trace"] = string(id)
	}
	return doc
}

// statusWriter records the status code written through it, for SLO
// accounting on proxied responses.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
	s.ResponseWriter.WriteHeader(code)
}

// Flush passes through to the wrapped writer so the streaming relay's
// per-chunk flushes survive the SLO wrapper.
func (s *statusWriter) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// relayChunk sizes the copy buffer used to stream proxied response
// bodies; the gate's memory per relayed response is bounded by it no
// matter how large the body (a dump_data run's data segment can be
// many MiB). Typical /run answers are a few KB, so a larger chunk would
// only hold idle pooled memory per concurrent relay.
const relayChunk = 16 << 10

// relayBufs recycles the relay buffers: a fresh zeroed chunk per response
// was a fifth of the bytes a hot-cache fleet allocated.
var relayBufs = sync.Pool{New: func() any {
	b := make([]byte, relayChunk)
	return &b
}}

// tryReplica proxies one attempt. It reports false only on a transport
// error (the replica never answered), in which case nothing has been
// written to w and the caller may fail over; the replica is marked dead
// unless the client is the one that went away. Any HTTP response, error
// or not, is relayed as-is, streamed through a bounded buffer with a
// flush per chunk so large bodies reach the client as they arrive instead
// of accumulating in gate memory. The replica's advertised worker count
// is read off every response. spill names the owner the attempt bypassed,
// if any.
func (g *Gate) tryReplica(ctx context.Context, w http.ResponseWriter, r *http.Request, replica, path string, body []byte, attempt int, spill string) bool {
	st := g.replicas[replica]
	actx, span := xtrace.StartSpan(ctx, "gate.attempt")
	span.SetAttr("replica", replica)
	if attempt > 0 {
		span.SetAttr("failover", strconv.Itoa(attempt))
	}
	if spill != "" {
		span.SetAttr("spill", spill)
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		replica+path, bytes.NewReader(body))
	if err != nil {
		st.transport.Inc()
		span.EndErr(err)
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	xtrace.Inject(actx, req.Header)
	start := time.Now()
	resp, err := g.proxy.Do(req)
	if err != nil {
		st.transport.Inc()
		if r.Context().Err() == nil {
			g.ring.SetAlive(replica, false)
		}
		span.EndErr(err)
		return false
	}
	defer resp.Body.Close()
	if n, err := strconv.ParseInt(resp.Header.Get(fleet.WorkersHeader), 10, 64); err == nil && n > 0 {
		st.workers.Store(n)
	}
	st.requests.Inc()
	st.latency.Observe(time.Since(start))
	if resp.StatusCode >= 500 {
		st.server5xx.Inc()
	}
	h := w.Header()
	for k, vv := range resp.Header {
		h[k] = vv
	}
	h.Set(ReplicaHeader, replica)
	w.WriteHeader(resp.StatusCode)
	flushCopy(w, resp.Body)
	span.SetAttr("status", strconv.Itoa(resp.StatusCode))
	span.End()
	return true
}

// flushCopy streams src to w through a fixed-size buffer, flushing after
// every chunk so the client sees bytes as the replica produces them. The
// gate never holds more than one chunk of any response body.
func flushCopy(w http.ResponseWriter, src io.Reader) {
	flusher, _ := w.(http.Flusher)
	bp := relayBufs.Get().(*[]byte)
	defer relayBufs.Put(bp)
	buf := *bp
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// handleTraces serves the gate's flight recorder, and — when a trace id
// is named — the fleet-wide stitched view: the gate's own routing spans
// merged with every span the replicas recorded under the same id (the
// replica that served it, the peer it fetched from). ?stitch=0 restricts
// the answer to the gate's own spans.
//
//	GET /debugz/traces                 gate-local trace summaries
//	GET /debugz/traces?id=T            fleet-stitched span set for T
//	GET /debugz/traces?id=T&format=chrome
//	                                   the stitched view as a Chrome
//	                                   trace-event file
func (g *Gate) handleTraces(w http.ResponseWriter, r *http.Request) {
	id := xtrace.TraceID(r.URL.Query().Get("id"))
	if id == "" || r.URL.Query().Get("stitch") == "0" {
		g.traces.ServeHTTP(w, r)
		return
	}
	spans, _ := g.traces.Get(id)
	seen := make(map[xtrace.SpanID]bool, len(spans))
	for _, s := range spans {
		seen[s.ID] = true
	}
	for _, blob := range g.fetchLive(r.Context(), "/debugz/traces?id="+string(id), 4<<20) {
		var doc replicaTrace
		if json.Unmarshal(blob, &doc) != nil {
			continue
		}
		for _, s := range doc.Spans {
			if !seen[s.ID] {
				seen[s.ID] = true
				spans = append(spans, s)
			}
		}
	}
	if len(spans) == 0 {
		writeJSON(w, http.StatusNotFound,
			map[string]string{"error": "trace not found: " + string(id)})
		return
	}
	xtrace.ServeSpans(w, r, id, spans)
}

// replicaTrace is the single-trace document a replica's /debugz/traces
// serves; the gate only needs the span list.
type replicaTrace struct {
	Spans []xtrace.Span `json:"spans"`
}

func (g *Gate) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if g.ring.LiveCount() == 0 {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"status": "no healthy replicas"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ReplicaStats is the /statsz view of one replica.
type ReplicaStats struct {
	Healthy         bool             `json:"healthy"`
	Requests        int64            `json:"requests"`
	Server5xx       int64            `json:"server_5xx"`
	TransportErrors int64            `json:"transport_errors"`
	Latency         metrics.Snapshot `json:"latency"`
}

// Stats is the gate's /statsz document. ReplicaStatsz carries each live
// replica's own /statsz verbatim, so one scrape of the gate shows the
// whole fleet's cache and coalescing behaviour.
type Stats struct {
	UptimeSeconds float64                    `json:"uptime_seconds"`
	Requests      int64                      `json:"requests"`
	Failovers     int64                      `json:"failovers"`
	Unrouted      int64                      `json:"unrouted"`
	Spills        int64                      `json:"spills"`
	LiveReplicas  int                        `json:"live_replicas"`
	Replicas      map[string]ReplicaStats    `json:"replicas"`
	ReplicaStatsz map[string]json.RawMessage `json:"replica_statsz,omitempty"`
	// FleetLatency is every replica's latency histogram merged into one —
	// the same Histogram code path as the per-replica figures, so the
	// aggregate quantiles are count-for-count consistent with them.
	FleetLatency metrics.Snapshot `json:"fleet_latency"`
	// SLOs reports the gate-measured burn state per route, present only
	// when objectives are configured.
	SLOs []xtrace.SLOStatus `json:"slos,omitempty"`
	// Traces reports the gate's flight recorder.
	Traces xtrace.RecorderStats `json:"traces"`
}

// fleetLatency merges every replica's histogram into one aggregate.
func (g *Gate) fleetLatency() *metrics.Histogram {
	agg := metrics.NewLatencyHistogram()
	for _, rs := range g.replicas {
		// Same layout by construction; Merge cannot fail here.
		agg.Merge(rs.latency)
	}
	return agg
}

// Snapshot collects the gate counters; when fetchReplicas is set it also
// pulls each healthy replica's /statsz (bounded by the health timeout).
func (g *Gate) Snapshot(ctx context.Context, fetchReplicas bool) Stats {
	st := Stats{
		UptimeSeconds: time.Since(g.start).Seconds(),
		Requests:      g.requests.Load(),
		Failovers:     g.failovers.Load(),
		Unrouted:      g.unrouted.Load(),
		Spills:        g.spills.Load(),
		LiveReplicas:  g.ring.LiveCount(),
		Replicas:      make(map[string]ReplicaStats, len(g.replicas)),
		FleetLatency:  g.fleetLatency().Snapshot(),
		SLOs:          g.slo.Snapshot(),
		Traces:        g.traces.Stats(),
	}
	for url, rs := range g.replicas {
		st.Replicas[url] = ReplicaStats{
			Healthy:         g.ring.Alive(url),
			Requests:        rs.requests.Load(),
			Server5xx:       rs.server5xx.Load(),
			TransportErrors: rs.transport.Load(),
			Latency:         rs.latency.Snapshot(),
		}
	}
	if fetchReplicas {
		st.ReplicaStatsz = g.fetchLive(ctx, "/statsz", 1<<20)
	}
	return st
}

// fetchLive GETs path from every live replica concurrently, each request
// bounded by the health timeout, and returns the 200 answers that are
// valid JSON of at most limit bytes, keyed by replica. A replica without
// the document (a trace it never saw answers 404) contributes nothing.
func (g *Gate) fetchLive(ctx context.Context, path string, limit int64) map[string]json.RawMessage {
	out := make(map[string]json.RawMessage)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, url := range g.ring.Nodes() {
		if !g.ring.Alive(url) {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			reqCtx, cancel := context.WithTimeout(ctx, g.cfg.HealthTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, url+path, nil)
			if err != nil {
				return
			}
			resp, err := g.proxy.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			blob, err := io.ReadAll(io.LimitReader(resp.Body, limit))
			if err != nil || resp.StatusCode != http.StatusOK || !json.Valid(blob) {
				return
			}
			mu.Lock()
			out[url] = blob
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

func (g *Gate) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.Snapshot(r.Context(), true))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}
