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
package gate

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"queuemachine/internal/compile"
	"queuemachine/internal/fleet"
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

// replicaState is the gate's account of one replica.
type replicaState struct {
	requests  atomic.Int64 // proxied requests answered by this replica
	server5xx atomic.Int64 // of those, 5xx responses
	transport atomic.Int64 // connect/read failures (failed over)
	healthy   atomic.Bool
	latency   *fleet.Histogram
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

	requests, failovers, unrouted atomic.Int64
}

// New builds a gate over the replica set. It fails only on an empty or
// duplicated replica list.
func New(cfg Config) (*Gate, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("gate: no replicas configured")
	}
	seen := make(map[string]bool, len(cfg.Replicas))
	states := make(map[string]*replicaState, len(cfg.Replicas))
	for _, r := range cfg.Replicas {
		if r == "" || seen[r] {
			return nil, fmt.Errorf("gate: empty or duplicate replica %q", r)
		}
		seen[r] = true
		st := &replicaState{latency: fleet.NewLatencyHistogram()}
		st.healthy.Store(true) // optimistic until the first probe
		states[r] = st
	}
	g := &Gate{
		cfg:      cfg,
		ring:     fleet.NewRing(cfg.Replicas, cfg.VirtualNodes),
		probe:    fleet.NewClient(cfg.HealthTimeout),
		proxy:    &http.Client{Timeout: cfg.ProxyTimeout},
		mux:      http.NewServeMux(),
		start:    time.Now(),
		replicas: states,
		traces: xtrace.NewRecorder(xtrace.RecorderConfig{
			Capacity:      cfg.TraceCapacity,
			SlowThreshold: cfg.TraceSlow,
		}),
		slo: xtrace.NewSLOTracker(cfg.SLOs),
	}
	g.tracer = xtrace.NewTracer(cfg.Process, g.traces)
	g.mux.HandleFunc("POST /compile", func(w http.ResponseWriter, r *http.Request) {
		g.handleProxy(w, r, "/compile")
	})
	g.mux.HandleFunc("POST /run", func(w http.ResponseWriter, r *http.Request) {
		g.handleProxy(w, r, "/run")
	})
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /statsz", g.handleStatsz)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	g.mux.HandleFunc("GET /debugz/traces", g.handleTraces)
	return g, nil
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
	for url, st := range g.replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probeCtx, cancel := context.WithTimeout(ctx, g.cfg.HealthTimeout)
			defer cancel()
			alive := g.probe.CheckHealth(probeCtx, url) == nil
			st.healthy.Store(alive)
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
	g.requests.Add(1)
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
	if len(owners) == 0 {
		// Every replica is marked dead. Probing found nobody, but a
		// request is here now: try the full set in ring order rather
		// than refusing outright — a replica that just came back serves
		// it and the next health sweep revives the ring.
		owners = g.ring.Nodes()
	}
	for i, replica := range owners {
		if i > 0 {
			g.failovers.Add(1)
		}
		// Each attempt is its own span: a mid-request failover leaves two
		// routing spans under one trace, the dead replica's marked failed.
		if g.tryReplica(ctx, status, r, replica, path, body, i) {
			return
		}
		if r.Context().Err() != nil {
			return // client gone; retrying serves nobody
		}
	}
	g.unrouted.Add(1)
	err = errors.New("no replica reachable")
	root.SetError(err)
	writeJSON(status, http.StatusBadGateway, errorDoc(ctx, err.Error()))
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
// many MiB).
const relayChunk = 64 << 10

// relayBufs recycles the relay buffers: a fresh zeroed chunk per response
// was a fifth of the bytes a hot-cache fleet allocated.
var relayBufs = sync.Pool{New: func() any {
	b := make([]byte, relayChunk)
	return &b
}}

// tryReplica proxies one attempt. It reports false only on a transport
// error (the replica never answered), in which case the replica is
// marked dead and nothing has been written to w — the caller may fail
// over. Any HTTP response, error or not, is relayed as-is, streamed
// through a bounded buffer with a flush per chunk so large bodies reach
// the client as they arrive instead of accumulating in gate memory.
func (g *Gate) tryReplica(ctx context.Context, w http.ResponseWriter, r *http.Request, replica, path string, body []byte, attempt int) bool {
	st := g.replicas[replica]
	actx, span := xtrace.StartSpan(ctx, "gate.attempt")
	span.SetAttr("replica", replica)
	if attempt > 0 {
		span.SetAttr("failover", strconv.Itoa(attempt))
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		replica+path, bytes.NewReader(body))
	if err != nil {
		st.transport.Add(1)
		span.EndErr(err)
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	xtrace.Inject(actx, req.Header)
	start := time.Now()
	resp, err := g.proxy.Do(req)
	if err != nil {
		st.transport.Add(1)
		st.healthy.Store(false)
		g.ring.SetAlive(replica, false)
		span.EndErr(err)
		return false
	}
	defer resp.Body.Close()
	st.requests.Add(1)
	st.latency.Observe(time.Since(start))
	if resp.StatusCode >= 500 {
		st.server5xx.Add(1)
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
	for _, doc := range g.fetchTraces(r.Context(), id) {
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

// fetchTraces asks every healthy replica for its spans under id. A
// replica without the trace answers 404 and contributes nothing.
func (g *Gate) fetchTraces(ctx context.Context, id xtrace.TraceID) []replicaTrace {
	var mu sync.Mutex
	var docs []replicaTrace
	var wg sync.WaitGroup
	for url, rs := range g.replicas {
		if !rs.healthy.Load() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			reqCtx, cancel := context.WithTimeout(ctx, g.cfg.HealthTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(reqCtx, http.MethodGet,
				url+"/debugz/traces?id="+string(id), nil)
			if err != nil {
				return
			}
			resp, err := g.proxy.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			var doc replicaTrace
			if json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&doc) != nil {
				return
			}
			mu.Lock()
			docs = append(docs, doc)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return docs
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
	Healthy         bool           `json:"healthy"`
	Requests        int64          `json:"requests"`
	Server5xx       int64          `json:"server_5xx"`
	TransportErrors int64          `json:"transport_errors"`
	Latency         fleet.Snapshot `json:"latency"`
}

// Stats is the gate's /statsz document. ReplicaStatsz carries each live
// replica's own /statsz verbatim, so one scrape of the gate shows the
// whole fleet's cache and coalescing behaviour.
type Stats struct {
	UptimeSeconds float64                    `json:"uptime_seconds"`
	Requests      int64                      `json:"requests"`
	Failovers     int64                      `json:"failovers"`
	Unrouted      int64                      `json:"unrouted"`
	LiveReplicas  int                        `json:"live_replicas"`
	Replicas      map[string]ReplicaStats    `json:"replicas"`
	ReplicaStatsz map[string]json.RawMessage `json:"replica_statsz,omitempty"`
	// FleetLatency is every replica's latency histogram merged into one —
	// the same Histogram code path as the per-replica figures, so the
	// aggregate quantiles are count-for-count consistent with them.
	FleetLatency fleet.Snapshot `json:"fleet_latency"`
	// SLOs reports the gate-measured burn state per route, present only
	// when objectives are configured.
	SLOs []xtrace.SLOStatus `json:"slos,omitempty"`
	// Traces reports the gate's flight recorder.
	Traces xtrace.RecorderStats `json:"traces"`
}

// fleetLatency merges every replica's histogram into one aggregate.
func (g *Gate) fleetLatency() *fleet.Histogram {
	agg := fleet.NewLatencyHistogram()
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
		LiveReplicas:  g.ring.LiveCount(),
		Replicas:      make(map[string]ReplicaStats, len(g.replicas)),
		FleetLatency:  g.fleetLatency().Snapshot(),
		SLOs:          g.slo.Snapshot(),
		Traces:        g.traces.Stats(),
	}
	for url, rs := range g.replicas {
		st.Replicas[url] = ReplicaStats{
			Healthy:         rs.healthy.Load(),
			Requests:        rs.requests.Load(),
			Server5xx:       rs.server5xx.Load(),
			TransportErrors: rs.transport.Load(),
			Latency:         rs.latency.Snapshot(),
		}
	}
	if fetchReplicas {
		st.ReplicaStatsz = g.fetchStatsz(ctx)
	}
	return st
}

// fetchStatsz pulls each healthy replica's /statsz document.
func (g *Gate) fetchStatsz(ctx context.Context) map[string]json.RawMessage {
	out := make(map[string]json.RawMessage)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for url, rs := range g.replicas {
		if !rs.healthy.Load() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			reqCtx, cancel := context.WithTimeout(ctx, g.cfg.HealthTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, url+"/statsz", nil)
			if err != nil {
				return
			}
			resp, err := g.proxy.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			blob, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
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

// handleMetrics serves the gate counters in Prometheus text exposition
// format: per-replica request/error counters, liveness gauges, and a
// latency histogram per replica.
func (g *Gate) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	urls := make([]string, 0, len(g.replicas))
	for url := range g.replicas {
		urls = append(urls, url)
	}
	sort.Strings(urls)

	fmt.Fprintf(w, "# HELP qgate_requests_total Requests accepted by the gate.\n# TYPE qgate_requests_total counter\nqgate_requests_total %d\n", g.requests.Load())
	fmt.Fprintf(w, "# HELP qgate_failovers_total Proxy attempts re-routed past a dead replica.\n# TYPE qgate_failovers_total counter\nqgate_failovers_total %d\n", g.failovers.Load())
	fmt.Fprintf(w, "# HELP qgate_unrouted_total Requests no replica could be reached for (502).\n# TYPE qgate_unrouted_total counter\nqgate_unrouted_total %d\n", g.unrouted.Load())
	fmt.Fprintf(w, "# HELP qgate_live_replicas Replicas currently on the ring.\n# TYPE qgate_live_replicas gauge\nqgate_live_replicas %d\n", g.ring.LiveCount())

	emit := func(name, help, typ string, value func(*replicaState) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, url := range urls {
			fmt.Fprintf(w, "%s{replica=%q} %d\n", name, url, value(g.replicas[url]))
		}
	}
	emit("qgate_replica_requests_total", "Proxied requests answered, by replica.", "counter",
		func(rs *replicaState) int64 { return rs.requests.Load() })
	emit("qgate_replica_5xx_total", "Proxied 5xx responses, by replica.", "counter",
		func(rs *replicaState) int64 { return rs.server5xx.Load() })
	emit("qgate_replica_transport_errors_total", "Transport failures, by replica.", "counter",
		func(rs *replicaState) int64 { return rs.transport.Load() })
	emit("qgate_replica_healthy", "1 while the replica passes health checks.", "gauge",
		func(rs *replicaState) int64 {
			if rs.healthy.Load() {
				return 1
			}
			return 0
		})

	// Per-replica and fleet-aggregate latency go through the same
	// histogram writer; the aggregate is the replicas' histograms merged,
	// so the two sets of series always sum consistently.
	writeHist := func(name string, labels string, h *fleet.Histogram) {
		var cum int64
		for i, bound := range h.Bounds() {
			cum += h.BucketCount(i)
			fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n",
				name, labels, fmt.Sprintf("%g", bound), cum)
		}
		cum += h.BucketCount(len(h.Bounds()))
		fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, cum)
		countLabels := ""
		if labels != "" {
			countLabels = "{" + strings.TrimSuffix(labels, ",") + "}"
		}
		fmt.Fprintf(w, "%s_count%s %d\n", name, countLabels, h.Count())
	}
	fmt.Fprintf(w, "# HELP qgate_replica_seconds Proxied request latency, by replica.\n# TYPE qgate_replica_seconds histogram\n")
	for _, url := range urls {
		writeHist("qgate_replica_seconds", fmt.Sprintf("replica=%q,", url), g.replicas[url].latency)
	}
	fmt.Fprintf(w, "# HELP qgate_fleet_seconds Proxied request latency across all replicas (merged).\n# TYPE qgate_fleet_seconds histogram\n")
	writeHist("qgate_fleet_seconds", "", g.fleetLatency())

	if slos := g.slo.Snapshot(); len(slos) > 0 {
		fmt.Fprintf(w, "# HELP qgate_slo_requests_total Requests scored against a route objective.\n# TYPE qgate_slo_requests_total counter\n")
		for _, o := range slos {
			fmt.Fprintf(w, "qgate_slo_requests_total{route=%q} %d\n", o.Route, o.Requests)
		}
		fmt.Fprintf(w, "# HELP qgate_slo_bad_total Requests burning error budget (slow or 5xx, counted once).\n# TYPE qgate_slo_bad_total counter\n")
		for _, o := range slos {
			fmt.Fprintf(w, "qgate_slo_bad_total{route=%q} %d\n", o.Route, o.Bad)
		}
		fmt.Fprintf(w, "# HELP qgate_slo_burn_rate Bad fraction over budget; 1 burns exactly at the objective.\n# TYPE qgate_slo_burn_rate gauge\n")
		for _, o := range slos {
			fmt.Fprintf(w, "qgate_slo_burn_rate{route=%q} %g\n", o.Route, o.BurnRate)
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}
