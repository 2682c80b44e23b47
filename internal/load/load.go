// Package load is an open-loop load generator for the qmd/qgate serving
// tier: it fires /run requests at a fixed offered rate with a
// Zipf-skewed program corpus and reports throughput, per-status and
// per-replica counts, cache and coalescing behaviour, and an HDR-style
// latency histogram.
//
// Open-loop means requests launch at their scheduled times no matter how
// the server is doing — a slow server does not slow the generator down,
// it just accumulates in-flight requests (up to MaxInFlight; beyond that
// the generator counts a drop rather than blocking, preserving the
// offered-rate semantics). This is the load model that exposes queueing
// collapse; closed-loop generators hide it by self-throttling. Latency
// is timed from each request's scheduled time, not from when it fired, so
// a stall in the generator itself shows in the requests it delayed.
//
// The Zipf skew mirrors real compile-service traffic: a few hot programs
// dominate, which is precisely the regime the serving tier's coalescing
// and cache layers are built for. Skew s=1.1 over the Chapter-6 corpus
// sends roughly half of all requests to the hottest two programs.
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"queuemachine/internal/gate"
	"queuemachine/internal/metrics"
	"queuemachine/internal/workloads"
	"queuemachine/internal/xtrace"
)

// Program is one corpus entry: a named OCCAM source.
type Program struct {
	Name   string
	Source string
}

// Corpus returns a named program set: "chapter6" (the thesis evaluation
// workloads at several sizes), "gen2" (the second-generation suite), or
// "all" (both).
func Corpus(name string) ([]Program, error) {
	var wls []workloads.Workload
	chapter6 := func() {
		for n := 2; n <= 4; n++ {
			wls = append(wls, workloads.MatMul(n))
		}
		for logN := 2; logN <= 3; logN++ {
			wls = append(wls, workloads.FFT(logN))
		}
		for n := 2; n <= 4; n++ {
			wls = append(wls, workloads.Cholesky(n))
		}
		for n := 2; n <= 5; n++ {
			wls = append(wls, workloads.Congruence(n))
		}
		for _, n := range []int{8, 16, 32} {
			wls = append(wls, workloads.BinaryRecursiveSum(n))
			wls = append(wls, workloads.IterativeSum(n))
		}
	}
	gen2 := func() {
		for logN := 2; logN <= 3; logN++ {
			wls = append(wls, workloads.Bitonic(logN))
		}
		for n := 2; n <= 4; n++ {
			wls = append(wls, workloads.LU(n))
		}
		wls = append(wls, workloads.Stencil(6, 2))
		wls = append(wls, workloads.Chain(12))
	}
	switch name {
	case "chapter6":
		chapter6()
	case "gen2":
		gen2()
	case "all":
		chapter6()
		gen2()
	default:
		return nil, fmt.Errorf("load: unknown corpus %q (want chapter6, gen2, or all)", name)
	}
	progs := make([]Program, len(wls))
	for i, wl := range wls {
		progs[i] = Program{Name: wl.Name, Source: wl.Source}
	}
	return progs, nil
}

// Options configures one load run.
type Options struct {
	// Rate is the offered request rate in req/s (required, > 0).
	Rate float64
	// Duration is how long to offer load (required, > 0).
	Duration time.Duration
	// Skew is the Zipf s parameter over the corpus (must be > 1;
	// default 1.1). Larger is hotter.
	Skew float64
	// Seed makes the program sequence reproducible (default 1).
	Seed uint64
	// PEs is the simulated machine size each run asks for (default 2).
	PEs int
	// MaxInFlight bounds concurrent outstanding requests; beyond it a
	// scheduled request is counted as dropped, not delayed (default 256).
	MaxInFlight int
	// Timeout bounds each request (default 30s).
	Timeout time.Duration
	// Corpus names the program set (default "chapter6").
	Corpus string
	// TraceSample sends a fresh X-Qmd-Trace id on every Nth sent request,
	// starting with the first (0 disables, 1 traces every request). The serving tier records those requests in its flight
	// recorders, and the report lists every sampled id with its observed
	// latency so the slowest traces can be pulled from /debugz/traces
	// after the run.
	TraceSample int
	// SLOP99 declares the run's p99 latency objective; the report carries
	// the verdict and callers (qload's -slo-p99 gate) may fail on a miss.
	// Zero disables the check.
	SLOP99 time.Duration
}

func (o Options) withDefaults() Options {
	if o.Skew <= 1 {
		o.Skew = 1.1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.PEs <= 0 {
		o.PEs = 2
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 256
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.Corpus == "" {
		o.Corpus = "chapter6"
	}
	return o
}

// Report is the outcome of one load run.
type Report struct {
	Target          string  `json:"target"`
	Corpus          string  `json:"corpus"`
	Programs        int     `json:"programs"`
	Skew            float64 `json:"skew"`
	PEs             int     `json:"pes"`
	OfferedRate     float64 `json:"offered_rate"`
	DurationSeconds float64 `json:"duration_seconds"`
	// Offered counts scheduled requests; Sent the ones actually fired
	// (Offered - Dropped); Completed the ones that got an HTTP response.
	Offered         int64 `json:"offered"`
	Sent            int64 `json:"sent"`
	Dropped         int64 `json:"dropped"`
	Completed       int64 `json:"completed"`
	TransportErrors int64 `json:"transport_errors"`
	// AchievedRPS is completed responses per second of wall-clock run time.
	AchievedRPS float64 `json:"achieved_rps"`
	// Status counts responses by HTTP status code ("200", "429", ...).
	Status map[string]int64 `json:"status"`
	// Cache counts responses by X-Qmd-Cache header value ("hit",
	// "coalesced", "disk", "peer", "miss"); Replicas by the
	// X-Qmd-Replica header when the target is a gate.
	Cache    map[string]int64 `json:"cache"`
	Replicas map[string]int64 `json:"replicas,omitempty"`
	// CoalescedRate and CacheHitRate are fractions of 2xx responses
	// answered by joining an in-flight execution, respectively by any
	// cache tier (memory, disk, peer) without executing.
	CoalescedRate float64 `json:"coalesced_rate"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	// Server5xx totals responses with status >= 500.
	Server5xx int64            `json:"server_5xx"`
	Latency   metrics.Snapshot `json:"latency"`
	// SLO is the run's latency verdict, present when an objective was
	// declared (Options.SLOP99).
	SLO *SLOOutcome `json:"slo,omitempty"`
	// SampledTraces lists the trace-sampled requests slowest-first, so
	// `head -n` of the list is exactly "the N slowest sampled traces".
	// Present when Options.TraceSample > 0.
	SampledTraces []SampledTrace `json:"sampled_traces,omitempty"`
}

// SLOOutcome scores the whole run against its p99 objective.
type SLOOutcome struct {
	TargetP99Seconds float64 `json:"target_p99_seconds"`
	P99Seconds       float64 `json:"p99_seconds"`
	Pass             bool    `json:"pass"`
}

// SampledTrace is one trace-sampled request's outcome: the id to look up
// in a flight recorder, and what the client observed.
type SampledTrace struct {
	ID             string  `json:"id"`
	Status         int     `json:"status"`
	LatencySeconds float64 `json:"latency_seconds"`
	TransportError bool    `json:"transport_error,omitempty"`
}

// maxSampledTraces bounds the sampled-trace list so an extreme
// rate×duration×sample combination cannot grow the report unboundedly.
const maxSampledTraces = 4096

// collector accumulates results from concurrent request goroutines.
type collector struct {
	mu        sync.Mutex
	status    map[string]int64
	cache     map[string]int64
	replicas  map[string]int64
	completed int64
	transport int64
	hist      *metrics.Histogram
	sampled   []SampledTrace
}

func (c *collector) response(status int, cacheState, replica string, trace xtrace.TraceID, d time.Duration) {
	c.hist.Observe(d)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.completed++
	c.status[strconv.Itoa(status)]++
	if cacheState != "" {
		c.cache[cacheState]++
	}
	if replica != "" {
		c.replicas[replica]++
	}
	if trace != "" && len(c.sampled) < maxSampledTraces {
		c.sampled = append(c.sampled, SampledTrace{
			ID: string(trace), Status: status, LatencySeconds: d.Seconds(),
		})
	}
}

func (c *collector) transportError(trace xtrace.TraceID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.transport++
	if trace != "" && len(c.sampled) < maxSampledTraces {
		c.sampled = append(c.sampled, SampledTrace{ID: string(trace), TransportError: true})
	}
}

// Run offers load against target (a qmd replica or a qgate front proxy)
// and blocks until the run completes and every in-flight request has
// resolved. ctx cancellation stops scheduling new requests early.
func Run(ctx context.Context, target string, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if opts.Rate <= 0 || opts.Duration <= 0 {
		return nil, fmt.Errorf("load: Rate and Duration are required")
	}
	progs, err := Corpus(opts.Corpus)
	if err != nil {
		return nil, err
	}
	// Pre-marshal every request body: the scheduling loop must do no
	// per-request allocation heavier than a goroutine spawn, or the
	// generator itself becomes the bottleneck it is measuring.
	bodies := make([][]byte, len(progs))
	for i, p := range progs {
		body, err := json.Marshal(map[string]any{"source": p.Source, "pes": opts.PEs})
		if err != nil {
			return nil, fmt.Errorf("load: marshal %s: %w", p.Name, err)
		}
		bodies[i] = body
	}
	rng := rand.New(rand.NewPCG(opts.Seed, opts.Seed))
	zipf := rand.NewZipf(rng, opts.Skew, 1, uint64(len(progs)-1))

	client := &http.Client{
		Timeout: opts.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        opts.MaxInFlight,
			MaxIdleConnsPerHost: opts.MaxInFlight,
		},
	}
	col := &collector{
		status:   make(map[string]int64),
		cache:    make(map[string]int64),
		replicas: make(map[string]int64),
		hist:     metrics.NewLatencyHistogram(),
	}
	sem := make(chan struct{}, opts.MaxInFlight)
	var wg sync.WaitGroup
	var offered, sent, dropped int64

	interval := time.Duration(float64(time.Second) / opts.Rate)
	start := time.Now()
	end := start.Add(opts.Duration)
	for n := int64(0); ; n++ {
		// Drift-free schedule: request n fires at start + n·interval,
		// not interval after whenever request n-1 happened to fire.
		next := start.Add(time.Duration(n) * interval)
		if next.After(end) {
			break
		}
		if d := time.Until(next); d > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(d):
			}
		}
		if ctx.Err() != nil {
			break // stop scheduling; fall through to drain in-flight work
		}
		offered++
		select {
		case sem <- struct{}{}:
		default:
			dropped++
			continue
		}
		sent++
		body := bodies[zipf.Uint64()]
		var trace xtrace.TraceID
		if sampled(sent, opts.TraceSample) {
			trace = xtrace.NewTraceID()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			fire(ctx, client, target, body, next, trace, col)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	col.mu.Lock()
	defer col.mu.Unlock()
	rep := &Report{
		Target:          target,
		Corpus:          opts.Corpus,
		Programs:        len(progs),
		Skew:            opts.Skew,
		PEs:             opts.PEs,
		OfferedRate:     opts.Rate,
		DurationSeconds: elapsed.Seconds(),
		Offered:         offered,
		Sent:            sent,
		Dropped:         dropped,
		Completed:       col.completed,
		TransportErrors: col.transport,
		Status:          col.status,
		Cache:           col.cache,
		Replicas:        col.replicas,
		Latency:         col.hist.Snapshot(),
	}
	if elapsed > 0 {
		rep.AchievedRPS = float64(col.completed) / elapsed.Seconds()
	}
	var ok2xx int64
	for code, n := range col.status {
		if code[0] == '2' {
			ok2xx += n
		}
		if code[0] == '5' {
			rep.Server5xx += n
		}
	}
	if ok2xx > 0 {
		rep.CoalescedRate = float64(col.cache["coalesced"]) / float64(ok2xx)
		served := col.cache["hit"] + col.cache["disk"] + col.cache["peer"]
		rep.CacheHitRate = float64(served) / float64(ok2xx)
	}
	if len(col.sampled) > 0 {
		rep.SampledTraces = col.sampled
		sort.Slice(rep.SampledTraces, func(i, j int) bool {
			return rep.SampledTraces[i].LatencySeconds > rep.SampledTraces[j].LatencySeconds
		})
	}
	if opts.SLOP99 > 0 {
		p99 := col.hist.Quantile(0.99)
		rep.SLO = &SLOOutcome{
			TargetP99Seconds: opts.SLOP99.Seconds(),
			P99Seconds:       p99.Seconds(),
			Pass:             p99 <= opts.SLOP99,
		}
	}
	return rep, nil
}

// sampled reports whether the n-th sent request (from 1) carries a trace
// id when every N-th is sampled: the 1st, the N+1-th, the 2N+1-th, ...
func sampled(n int64, every int) bool {
	return every > 0 && (n-1)%int64(every) == 0
}

// fire sends one request and records its outcome. Transport errors and
// responses are both terminal outcomes: open-loop load never retries. The
// latency runs from due, the request's scheduled time, so a generator
// that fires late counts the delay against the requests it held up.
func fire(ctx context.Context, client *http.Client, target string, body []byte, due time.Time, trace xtrace.TraceID, col *collector) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/run", bytes.NewReader(body))
	if err != nil {
		col.transportError(trace)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		// A minted trace id is all it takes: the gate (or replica) opens
		// its root span under this id and records the trace server-side.
		req.Header.Set(xtrace.TraceHeader, string(trace))
	}
	resp, err := client.Do(req)
	if err != nil {
		col.transportError(trace)
		return
	}
	d := time.Since(due)
	// Drain so the connection is reusable; the content was already
	// validated server-side and the generator only scores headers.
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	col.response(resp.StatusCode, resp.Header.Get("X-Qmd-Cache"),
		resp.Header.Get(gate.ReplicaHeader), trace, d)
}

// WriteText renders the report for humans.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "target       %s (corpus %s, %d programs, zipf s=%.2f, pes=%d)\n",
		r.Target, r.Corpus, r.Programs, r.Skew, r.PEs)
	fmt.Fprintf(w, "offered      %d req @ %.0f req/s over %.1fs\n",
		r.Offered, r.OfferedRate, r.DurationSeconds)
	fmt.Fprintf(w, "completed    %d (%.1f req/s achieved), dropped %d, transport errors %d\n",
		r.Completed, r.AchievedRPS, r.Dropped, r.TransportErrors)
	fmt.Fprintf(w, "status       %s\n", formatCounts(r.Status))
	fmt.Fprintf(w, "cache        %s\n", formatCounts(r.Cache))
	if len(r.Replicas) > 0 {
		fmt.Fprintf(w, "replicas     %s\n", formatCounts(r.Replicas))
	}
	fmt.Fprintf(w, "coalesced    %.1f%% of 2xx; cache hits %.1f%%\n",
		100*r.CoalescedRate, 100*r.CacheHitRate)
	l := r.Latency
	fmt.Fprintf(w, "latency      p50 %s  p90 %s  p99 %s  p999 %s  max %s  (mean %s, n=%d)\n",
		fmtSecs(l.P50Seconds), fmtSecs(l.P90Seconds), fmtSecs(l.P99Seconds),
		fmtSecs(l.P999Seconds), fmtSecs(l.MaxSeconds), fmtSecs(l.MeanSeconds), l.Count)
	if r.SLO != nil {
		verdict := "PASS"
		if !r.SLO.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "slo          p99 %s vs objective %s: %s\n",
			fmtSecs(r.SLO.P99Seconds), fmtSecs(r.SLO.TargetP99Seconds), verdict)
	}
	if n := len(r.SampledTraces); n > 0 {
		show := min(n, 5)
		fmt.Fprintf(w, "traces       %d sampled; slowest:", n)
		for _, st := range r.SampledTraces[:show] {
			fmt.Fprintf(w, " %s(%s)", st.ID, fmtSecs(st.LatencySeconds))
		}
		fmt.Fprintln(w)
	}
}

func fmtSecs(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}

func formatCounts(m map[string]int64) string {
	if len(m) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	for i, k := range keys {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%s=%d", k, m[k])
	}
	return b.String()
}
