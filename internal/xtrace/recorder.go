package xtrace

import (
	"net/http"
	"sort"
	"sync"
	"time"

	"queuemachine/internal/metrics"
)

// Trace is one process-local committed trace: every span the process
// recorded under one trace id. Start/duration/error are derived from the
// spans at commit time so list views need no re-scan.
type Trace struct {
	ID      TraceID `json:"id"`
	Process string  `json:"process"`
	// Name is the root span's name (the span without a local parent).
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Err     bool   `json:"error,omitempty"`
	Spans   []Span `json:"spans"`
}

// RecorderConfig sizes a flight recorder. The zero value is usable.
type RecorderConfig struct {
	// Capacity is the ring of recent completed traces (default 256).
	Capacity int
	// SlowThreshold promotes an evicted trace to the outlier set when its
	// duration reaches it (default 1s).
	SlowThreshold time.Duration
	// OutlierCapacity bounds the retained slow/error outliers (default
	// 64). When full, the least interesting outlier is dropped: the
	// fastest non-error first, the fastest error only when no non-error
	// remains.
	OutlierCapacity int
}

func (c RecorderConfig) withDefaults() RecorderConfig {
	if c.Capacity <= 0 {
		c.Capacity = 256
	}
	if c.SlowThreshold <= 0 {
		c.SlowThreshold = time.Second
	}
	if c.OutlierCapacity <= 0 {
		c.OutlierCapacity = 64
	}
	return c
}

// Recorder is a process's flight recorder: a ring buffer of recently
// completed traces, plus a bounded set of slow and error outliers that
// survive ring eviction — so the interesting traces are still on board
// when someone comes looking, which with incidents is always after the
// fact. Safe for concurrent use.
type Recorder struct {
	cfg RecorderConfig

	mu        sync.Mutex
	ring      []*Trace // capacity cfg.Capacity; nil slots until warm
	next      int
	outliers  []*Trace
	committed int64
	evicted   int64
	dropped   int64 // outliers displaced by more interesting ones
}

// NewRecorder builds a flight recorder.
func NewRecorder(cfg RecorderConfig) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{cfg: cfg, ring: make([]*Trace, cfg.Capacity)}
}

// Commit stores one completed process-local trace.
func (r *Recorder) Commit(id TraceID, spans []Span) {
	if r == nil || len(spans) == 0 {
		return
	}
	tr := &Trace{ID: id, Process: spans[0].Process, Spans: spans}
	local := make(map[SpanID]bool, len(spans))
	for _, s := range spans {
		local[s.ID] = true
	}
	start, end := spans[0].StartUS, spans[0].StartUS
	for _, s := range spans {
		if s.StartUS < start {
			start = s.StartUS
		}
		if e := s.StartUS + s.DurUS; e > end {
			end = e
		}
		if s.Error != "" {
			tr.Err = true
		}
		if s.Parent == "" || !local[s.Parent] {
			tr.Name = s.Name
		}
	}
	tr.StartUS, tr.DurUS = start, end-start

	r.mu.Lock()
	defer r.mu.Unlock()
	r.committed++
	if old := r.ring[r.next]; old != nil {
		r.evict(old)
	}
	r.ring[r.next] = tr
	r.next = (r.next + 1) % len(r.ring)
}

// evict handles a trace falling off the ring: interesting ones (errors,
// or slower than the threshold) move to the outlier set. Callers hold mu.
func (r *Recorder) evict(tr *Trace) {
	r.evicted++
	if !tr.Err && time.Duration(tr.DurUS)*time.Microsecond < r.cfg.SlowThreshold {
		return
	}
	if len(r.outliers) >= r.cfg.OutlierCapacity {
		// Displace the fastest non-error outlier; errors go only when
		// nothing else is left, and never for a faster newcomer.
		victim, victimErr := -1, true
		for i, o := range r.outliers {
			if victim == -1 || (victimErr && !o.Err) ||
				(o.Err == victimErr && o.DurUS < r.outliers[victim].DurUS) {
				victim, victimErr = i, o.Err
			}
		}
		if victimErr && !tr.Err {
			r.dropped++
			return // all retained outliers are errors; keep them over a slow success
		}
		r.dropped++
		r.outliers[victim] = r.outliers[len(r.outliers)-1]
		r.outliers = r.outliers[:len(r.outliers)-1]
	}
	r.outliers = append(r.outliers, tr)
}

// Get returns every span recorded under id, merged across the ring and
// the outlier set (one process can legitimately hold several traces with
// one id — a /run root and the peer-compile it served for another
// replica). The second result reports whether anything was found.
func (r *Recorder) Get(id TraceID) ([]Span, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var spans []Span
	seen := make(map[SpanID]bool)
	collect := func(tr *Trace) {
		if tr == nil || tr.ID != id {
			return
		}
		for _, s := range tr.Spans {
			if !seen[s.ID] {
				seen[s.ID] = true
				spans = append(spans, s)
			}
		}
	}
	for _, tr := range r.ring {
		collect(tr)
	}
	for _, tr := range r.outliers {
		collect(tr)
	}
	return spans, len(spans) > 0
}

// Summary is the list-view projection of one recorded trace.
type Summary struct {
	ID      TraceID `json:"id"`
	Name    string  `json:"name"`
	Process string  `json:"process"`
	StartUS int64   `json:"start_us"`
	DurUS   int64   `json:"dur_us"`
	Spans   int     `json:"spans"`
	Err     bool    `json:"error,omitempty"`
	Outlier bool    `json:"outlier,omitempty"`
}

// List returns summaries of every resident trace, outliers first, then
// ring entries newest-first.
func (r *Recorder) List() []Summary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Summary, 0, len(r.outliers)+len(r.ring))
	add := func(tr *Trace, outlier bool) {
		out = append(out, Summary{
			ID: tr.ID, Name: tr.Name, Process: tr.Process,
			StartUS: tr.StartUS, DurUS: tr.DurUS,
			Spans: len(tr.Spans), Err: tr.Err, Outlier: outlier,
		})
	}
	sorted := append([]*Trace(nil), r.outliers...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].DurUS > sorted[j].DurUS })
	for _, tr := range sorted {
		add(tr, true)
	}
	for i := 1; i <= len(r.ring); i++ {
		if tr := r.ring[(r.next-i+len(r.ring))%len(r.ring)]; tr != nil {
			add(tr, false)
		}
	}
	return out
}

// RecorderStats is the /statsz view of a flight recorder.
type RecorderStats struct {
	Capacity  int   `json:"capacity"`
	Resident  int   `json:"resident"`
	Outliers  int   `json:"outliers"`
	Committed int64 `json:"committed"`
	Evicted   int64 `json:"evicted"`
	Dropped   int64 `json:"dropped_outliers"`
}

// Stats snapshots the recorder counters (zero value on nil).
func (r *Recorder) Stats() RecorderStats {
	if r == nil {
		return RecorderStats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RecorderStats{
		Capacity:  r.cfg.Capacity,
		Outliers:  len(r.outliers),
		Committed: r.committed,
		Evicted:   r.evicted,
		Dropped:   r.dropped,
	}
	for _, tr := range r.ring {
		if tr != nil {
			st.Resident++
		}
	}
	return st
}

// Register declares the recorder's families in reg under prefix:
// <prefix>_trace_committed_total, <prefix>_trace_evicted_total and
// <prefix>_trace_resident (ring plus outliers).
func (r *Recorder) Register(reg *metrics.Registry, prefix string) {
	reg.CounterFunc(prefix+"_trace_committed_total", "Traces committed to the flight recorder.",
		func() float64 { return float64(r.Stats().Committed) })
	reg.CounterFunc(prefix+"_trace_evicted_total", "Traces aged off the recorder ring.",
		func() float64 { return float64(r.Stats().Evicted) })
	reg.Gauge(prefix+"_trace_resident", "Traces resident in the recorder (ring plus outliers).",
		func() float64 { st := r.Stats(); return float64(st.Resident + st.Outliers) })
}

// traceDoc is the single-trace JSON document served by the handler; the
// gate's stitched view reuses it so clients see one shape either way.
type traceDoc struct {
	ID    TraceID `json:"id"`
	Spans []Span  `json:"spans"`
}

// ServeHTTP serves the recorder on GET /debugz/traces:
//
//	GET /debugz/traces            JSON list of resident trace summaries
//	GET /debugz/traces?id=T       all spans recorded under trace T
//	GET /debugz/traces?id=T&format=chrome
//	                              the same as a Chrome trace-event file
//	                              (load in chrome://tracing or Perfetto)
func (r *Recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	id := TraceID(req.URL.Query().Get("id"))
	if id == "" {
		writeTraceJSON(w, http.StatusOK, map[string]any{
			"stats":  r.Stats(),
			"traces": r.List(),
		})
		return
	}
	spans, ok := r.Get(id)
	if !ok {
		writeTraceJSON(w, http.StatusNotFound, map[string]string{
			"error": "trace not found: " + string(id)})
		return
	}
	ServeSpans(w, req, id, spans)
}

// ServeSpans writes a span set as the single-trace document, honouring
// the format=chrome query parameter. Shared by the per-process handler
// and the gate's stitched fleet view.
func ServeSpans(w http.ResponseWriter, req *http.Request, id TraceID, spans []Span) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartUS < spans[j].StartUS })
	if req.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(ChromeTrace(spans))
		return
	}
	writeTraceJSON(w, http.StatusOK, traceDoc{ID: id, Spans: spans})
}
