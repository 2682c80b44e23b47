package xtrace

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func tracedRequest(trace TraceID, parent SpanID) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/run", nil)
	if trace != "" {
		r.Header.Set(TraceHeader, string(trace))
	}
	if parent != "" {
		r.Header.Set(SpanHeader, string(parent))
	}
	return r
}

func TestIDsAreFreshAndWellFormed(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a == b {
		t.Fatal("trace ids collided")
	}
	if len(a) != 32 || len(NewSpanID()) != 16 {
		t.Fatalf("id lengths: trace %d span %d", len(a), len(NewSpanID()))
	}
}

func TestNilTracerAndSpanAreInert(t *testing.T) {
	var tr *Tracer
	ctx, root := tr.StartRequest(tracedRequest(NewTraceID(), ""), "run")
	if root != nil {
		t.Fatal("nil tracer produced a span")
	}
	ctx2, child := StartSpan(ctx, "child")
	if child != nil || ctx2 != ctx {
		t.Fatal("untraced context produced a span")
	}
	// Every method on the nil span must be callable.
	child.SetAttr("k", "v")
	child.SetError(context.Canceled)
	child.End()
	child.EndErr(nil)
	if child.ID() != "" || child.TraceID() != "" {
		t.Fatal("nil span has identity")
	}
	if TraceIDFrom(ctx) != "" {
		t.Fatal("untraced context has a trace id")
	}
	h := http.Header{}
	Inject(ctx, h)
	if len(h) != 0 {
		t.Fatal("Inject wrote headers for an untraced context")
	}
}

func TestUntracedRequestWithoutSamplerOpensNothing(t *testing.T) {
	tr := NewTracer("p", NewRecorder(RecorderConfig{}))
	_, root := tr.StartRequest(tracedRequest("", ""), "run")
	if root != nil {
		t.Fatal("headerless request traced")
	}
}

func TestSpanTreeAndCommit(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})
	tr := NewTracer("qmd", rec)
	trace, parent := NewTraceID(), NewSpanID()
	ctx, root := tr.StartRequest(tracedRequest(trace, parent), "run")
	if got := TraceIDFrom(ctx); got != trace {
		t.Fatalf("TraceIDFrom = %q, want %q", got, trace)
	}
	cctx, child := StartSpan(ctx, "artifact")
	child.SetAttr("cache", "miss")
	_, grand := StartSpan(cctx, "compile")
	grand.End()
	child.End()
	_, sib := StartSpan(ctx, "simulate")
	sib.End()
	// Nothing is visible before the root commits.
	if _, ok := rec.Get(trace); ok {
		t.Fatal("trace visible before root ended")
	}
	root.End()
	root.End() // idempotent

	spans, ok := rec.Get(trace)
	if !ok || len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	byName := make(map[string]Span)
	for _, s := range spans {
		byName[s.Name] = s
		if s.Trace != trace || s.Process != "qmd" {
			t.Fatalf("span %s: trace %q process %q", s.Name, s.Trace, s.Process)
		}
	}
	if byName["run"].Parent != parent {
		t.Errorf("root parent = %q, want caller's %q", byName["run"].Parent, parent)
	}
	if byName["artifact"].Parent != byName["run"].ID {
		t.Error("child not parented to root")
	}
	if byName["compile"].Parent != byName["artifact"].ID {
		t.Error("grandchild not parented to child")
	}
	if byName["simulate"].Parent != byName["run"].ID {
		t.Error("sibling not parented to root")
	}
	if byName["artifact"].Attrs["cache"] != "miss" {
		t.Error("attribute lost")
	}
}

func TestSpanAfterCommitIsDropped(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})
	tr := NewTracer("qmd", rec)
	ctx, root := tr.StartRequest(tracedRequest(NewTraceID(), ""), "run")
	_, straggler := StartSpan(ctx, "late")
	root.End()
	straggler.End()
	spans, _ := rec.Get(root.TraceID())
	if len(spans) != 1 {
		t.Fatalf("straggler span recorded after commit: %d spans", len(spans))
	}
}

func TestInjectCarriesCurrentSpan(t *testing.T) {
	tr := NewTracer("gate", NewRecorder(RecorderConfig{}))
	trace := NewTraceID()
	ctx, _ := tr.StartRequest(tracedRequest(trace, ""), "proxy")
	_, attempt := StartSpan(ctx, "gate.attempt")
	actx, _ := StartSpan(ctx, "other")
	_ = actx
	ctx2, attempt2 := StartSpan(ctx, "gate.attempt")
	h := http.Header{}
	Inject(ctx2, h)
	if h.Get(TraceHeader) != string(trace) {
		t.Fatalf("trace header = %q", h.Get(TraceHeader))
	}
	if h.Get(SpanHeader) != string(attempt2.ID()) || h.Get(SpanHeader) == string(attempt.ID()) {
		t.Fatalf("span header = %q, want current span %q", h.Get(SpanHeader), attempt2.ID())
	}
}

func TestContextDerivationPreservesTrace(t *testing.T) {
	tr := NewTracer("qmd", NewRecorder(RecorderConfig{}))
	ctx, root := tr.StartRequest(tracedRequest(NewTraceID(), ""), "run")
	// The serving stack derives deadline and detached contexts; the trace
	// must survive both (this is how a singleflight leader keeps tracing).
	dctx, cancel := context.WithTimeout(ctx, time.Hour)
	defer cancel()
	detached := context.WithoutCancel(dctx)
	if TraceIDFrom(detached) != root.TraceID() {
		t.Fatal("trace lost across WithTimeout/WithoutCancel")
	}
}

func TestRecorderEvictionKeepsOutliers(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 4, SlowThreshold: time.Second, OutlierCapacity: 8})
	mkTrace := func(id string, durUS int64, failed bool) {
		s := Span{Trace: TraceID(id), ID: NewSpanID(), Process: "p", Name: "run", DurUS: durUS}
		if failed {
			s.Error = "boom"
		}
		rec.Commit(TraceID(id), []Span{s})
	}
	mkTrace("slow", 2_000_000, false) // 2s: outlier-worthy
	mkTrace("err", 10, true)          // error: outlier-worthy
	for i := 0; i < 10; i++ {
		mkTrace("fast"+string(rune('a'+i)), 100, false)
	}
	// slow and err have long since fallen off the 4-slot ring, but must
	// still be retrievable; the early fast traces must be gone.
	if _, ok := rec.Get("slow"); !ok {
		t.Error("slow outlier evicted")
	}
	if _, ok := rec.Get("err"); !ok {
		t.Error("error outlier evicted")
	}
	if _, ok := rec.Get("fasta"); ok {
		t.Error("fast trace survived eviction without being an outlier")
	}
	st := rec.Stats()
	if st.Outliers != 2 || st.Resident != 4 || st.Committed != 12 {
		t.Errorf("stats = %+v", st)
	}
	// The list view flags outliers and keeps them first.
	list := rec.List()
	if len(list) != 6 {
		t.Fatalf("list has %d entries, want 6", len(list))
	}
	if !list[0].Outlier || !list[1].Outlier || list[2].Outlier {
		t.Errorf("outliers not listed first: %+v", list[:3])
	}
}

func TestRecorderOutlierDisplacementPrefersKeepingErrors(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Capacity: 1, SlowThreshold: time.Millisecond, OutlierCapacity: 2})
	commit := func(id string, durUS int64, failed bool) {
		s := Span{Trace: TraceID(id), ID: NewSpanID(), Process: "p", Name: "run", DurUS: durUS}
		if failed {
			s.Error = "x"
		}
		rec.Commit(TraceID(id), []Span{s})
		rec.Commit("filler-"+TraceID(id), []Span{{Trace: "filler-" + TraceID(id), ID: NewSpanID(), Process: "p", Name: "run"}})
	}
	commit("err1", 5_000, true)
	commit("err2", 5_000, true)
	commit("slow-but-fine", 1_000_000, false)
	// Outlier set is full of errors; a slow success must not displace them.
	if _, ok := rec.Get("err1"); !ok {
		t.Error("error outlier displaced by a slow success")
	}
	if _, ok := rec.Get("err2"); !ok {
		t.Error("error outlier displaced by a slow success")
	}
	if _, ok := rec.Get("slow-but-fine"); ok {
		t.Error("slow success kept over retained errors")
	}
}

func TestRecorderHTTPHandler(t *testing.T) {
	rec := NewRecorder(RecorderConfig{})
	tr := NewTracer("qmd", rec)
	ctx, root := tr.StartRequest(tracedRequest(NewTraceID(), ""), "run")
	_, child := StartSpan(ctx, "simulate")
	child.End()
	root.End()
	id := string(root.TraceID())

	get := func(url string) (int, []byte) {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		w := httptest.NewRecorder()
		rec.ServeHTTP(w, req)
		return w.Code, w.Body.Bytes()
	}
	code, body := get("/debugz/traces")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var list struct {
		Traces []Summary `json:"traces"`
	}
	if err := json.Unmarshal(body, &list); err != nil || len(list.Traces) != 1 {
		t.Fatalf("list body: %v %s", err, body)
	}
	code, body = get("/debugz/traces?id=" + id)
	if code != http.StatusOK {
		t.Fatalf("get: %d", code)
	}
	var doc traceDoc
	if err := json.Unmarshal(body, &doc); err != nil || len(doc.Spans) != 2 {
		t.Fatalf("trace body: %v %s", err, body)
	}
	code, body = get("/debugz/traces?id=" + id + "&format=chrome")
	if code != http.StatusOK {
		t.Fatalf("chrome: %d", code)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil {
		t.Fatalf("chrome body: %v", err)
	}
	// 2 X events + 1 process_name metadata event.
	if len(chrome.TraceEvents) != 3 {
		t.Fatalf("chrome events = %d, want 3", len(chrome.TraceEvents))
	}
	if code, _ := get("/debugz/traces?id=absent"); code != http.StatusNotFound {
		t.Fatalf("missing trace: %d", code)
	}
}

func TestChromeTraceLanesSeparateOverlaps(t *testing.T) {
	trace := NewTraceID()
	spans := []Span{
		{Trace: trace, ID: "a", Process: "gate", Name: "attempt1", StartUS: 0, DurUS: 100},
		{Trace: trace, ID: "b", Process: "gate", Name: "attempt2", StartUS: 50, DurUS: 100},
		{Trace: trace, ID: "c", Process: "gate", Name: "after", StartUS: 200, DurUS: 10},
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(ChromeTrace(spans), &doc); err != nil {
		t.Fatal(err)
	}
	tids := make(map[string]int)
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			tids[e.Name] = e.Tid
		}
	}
	if tids["attempt1"] == tids["attempt2"] {
		t.Error("overlapping spans share a lane")
	}
	if tids["after"] != tids["attempt1"] {
		t.Error("freed lane not reused")
	}
}

func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives("run=2s, compile=500ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 || objs[0].Route != "run" || objs[0].P99 != 2*time.Second ||
		objs[1].Route != "compile" || objs[1].P99 != 500*time.Millisecond {
		t.Fatalf("objs = %+v", objs)
	}
	if objs, err := ParseObjectives("  "); err != nil || objs != nil {
		t.Fatalf("empty spec: %v %v", objs, err)
	}
	for _, bad := range []string{"run", "run=", "run=fast", "run=-1s", "run=1s,run=2s"} {
		if _, err := ParseObjectives(bad); err == nil {
			t.Errorf("ParseObjectives(%q) accepted", bad)
		}
	}
}

func TestSLOTrackerBurnMath(t *testing.T) {
	tr := NewSLOTracker([]Objective{{Route: "run", P99: 100 * time.Millisecond}})
	for i := 0; i < 97; i++ {
		tr.Observe("run", 10*time.Millisecond, 200)
	}
	tr.Observe("run", 200*time.Millisecond, 200) // slow
	tr.Observe("run", 10*time.Millisecond, 500)  // error
	tr.Observe("run", 300*time.Millisecond, 503) // both: burns once
	tr.Observe("compile", time.Hour, 500)        // no objective: ignored

	snap := tr.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d routes", len(snap))
	}
	s := snap[0]
	if s.Requests != 100 || s.Slow != 2 || s.Errors != 2 || s.Bad != 3 {
		t.Fatalf("counters = %+v", s)
	}
	if s.BadFraction != 0.03 {
		t.Errorf("bad fraction = %g", s.BadFraction)
	}
	// Budget defaults to 1%: 3% bad = burn rate 3.
	if s.BurnRate < 2.999 || s.BurnRate > 3.001 {
		t.Errorf("burn rate = %g, want 3", s.BurnRate)
	}
	if s.TargetP99Seconds != 0.1 || s.Budget != 0.01 {
		t.Errorf("objective fields = %+v", s)
	}
}

func TestNilSLOTrackerIsInert(t *testing.T) {
	var tr *SLOTracker
	tr.Observe("run", time.Second, 500)
	if tr.Snapshot() != nil {
		t.Fatal("nil tracker has a snapshot")
	}
	if NewSLOTracker(nil) != nil {
		t.Fatal("empty objective set built a tracker")
	}
}

func TestRecorderMergesTracesSharingOneID(t *testing.T) {
	// One process can record two traces under one id: its own /run root
	// plus the peer-compile it served for another replica. Get must
	// return the union.
	rec := NewRecorder(RecorderConfig{})
	id := NewTraceID()
	rec.Commit(id, []Span{{Trace: id, ID: "r1", Process: "p", Name: "run"}})
	rec.Commit(id, []Span{{Trace: id, ID: "c1", Process: "p", Name: "compile"}})
	spans, ok := rec.Get(id)
	if !ok || len(spans) != 2 {
		t.Fatalf("merged spans = %d, want 2", len(spans))
	}
	names := []string{spans[0].Name, spans[1].Name}
	if strings.Join(names, ",") != "run,compile" && strings.Join(names, ",") != "compile,run" {
		t.Fatalf("names = %v", names)
	}
}
