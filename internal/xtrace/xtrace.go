// Package xtrace is request-scoped distributed tracing for the serving
// tier: the cross-process counterpart of internal/trace, which instruments
// the simulated machine. Where trace attributes cycles inside one
// simulation, xtrace attributes wall-clock time across the fleet — a
// request entering qgate carries a trace id through routing, failover,
// the replica's admission queue, every artifact-cache tier, peer fetches,
// coalesced-flight joins, the compile, and the simulation itself, and
// each process keeps a bounded flight recorder of recently completed
// traces (plus always-retained slow and error outliers) served on
// GET /debugz/traces.
//
// Propagation is two HTTP headers: TraceHeader carries the 128-bit trace
// id and SpanHeader the caller's span id, which becomes the parent of the
// receiving process's root span. A process opens a trace only when the
// headers arrive, so an untraced request costs one header lookup and
// nothing else — the same zero-cost-when-disabled contract
// internal/trace keeps inside the simulator.
//
// Span timestamps are wall-clock microseconds from each process's own
// clock. Within one machine (the CI fleet, the e2e tests) that makes
// cross-process spans directly comparable; across machines the usual
// clock-skew caveats apply and only intra-process durations are exact.
package xtrace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"sync"
	"time"
)

// TraceHeader and SpanHeader carry trace context between processes:
// qload → qgate → replica → peer. TraceHeader is the trace id shared by
// every span of the request; SpanHeader is the sender's current span id,
// which the receiver records as its root span's parent.
const (
	TraceHeader = "X-Qmd-Trace"
	SpanHeader  = "X-Qmd-Span"
)

// TraceID identifies one end-to-end request across processes (16 random
// bytes, hex). SpanID identifies one span within a trace (8 bytes, hex).
type TraceID string

type SpanID string

// NewTraceID returns a fresh random trace id.
func NewTraceID() TraceID { return TraceID(randHex(16)) }

// NewSpanID returns a fresh random span id.
func NewSpanID() SpanID { return SpanID(randHex(8)) }

func randHex(n int) string {
	b := make([]byte, n)
	// crypto/rand.Read on a healthy system cannot fail; if it somehow
	// does, the zero bytes still yield a syntactically valid (if
	// colliding) id, which degrades tracing, not serving.
	rand.Read(b)
	return hex.EncodeToString(b)
}

// Span is one completed operation within a trace. StartUS is wall-clock
// Unix microseconds from the recording process's clock; DurUS the span's
// duration in microseconds (zero-duration spans mark instantaneous
// events, like a coalesced follower's join).
type Span struct {
	Trace   TraceID           `json:"trace"`
	ID      SpanID            `json:"id"`
	Parent  SpanID            `json:"parent,omitempty"`
	Process string            `json:"process"`
	Name    string            `json:"name"`
	StartUS int64             `json:"start_us"`
	DurUS   int64             `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	Error   string            `json:"error,omitempty"`
}

// Tracer opens traces for one process. A nil *Tracer is valid and inert:
// every method returns the nil span, whose methods are all no-ops, so
// instrumented code needs no enabled-checks of its own.
type Tracer struct {
	process  string
	recorder *Recorder
}

// NewTracer builds a tracer that commits completed traces to rec under
// the given process name (shown as the process lane in stitched views).
func NewTracer(process string, rec *Recorder) *Tracer {
	return &Tracer{process: process, recorder: rec}
}

// Process returns the tracer's process label ("" on nil).
func (t *Tracer) Process() string {
	if t == nil {
		return ""
	}
	return t.process
}

// builder accumulates one process-local trace while its request runs and
// commits it to the recorder when the root span ends. Spans may end on
// worker goroutines while the handler goroutine ends others, so the
// builder is locked; spans ending after the root has committed (a flight
// whose every waiter timed out, say) are dropped silently.
type builder struct {
	tracer *Tracer
	trace  TraceID
	mu     sync.Mutex
	spans  []Span
	done   bool
}

func (b *builder) add(s Span) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done {
		return
	}
	b.spans = append(b.spans, s)
}

func (b *builder) commit() {
	b.mu.Lock()
	spans := b.spans
	b.done = true
	b.mu.Unlock()
	if rec := b.tracer.recorder; rec != nil && len(spans) > 0 {
		rec.Commit(b.trace, spans)
	}
}

// ActiveSpan is a span under construction. The zero of usefulness is nil:
// every method on a nil *ActiveSpan is a no-op, which is what lets traced
// and untraced requests share one code path.
type ActiveSpan struct {
	b     *builder
	root  bool
	mu    sync.Mutex
	span  Span
	start time.Time
	ended bool
}

type ctxKey struct{}

// spanFrom returns the current span carried by ctx, or nil.
func spanFrom(ctx context.Context) *ActiveSpan {
	s, _ := ctx.Value(ctxKey{}).(*ActiveSpan)
	return s
}

// TraceIDFrom returns the trace id active on ctx ("" when untraced).
func TraceIDFrom(ctx context.Context) TraceID {
	if s := spanFrom(ctx); s != nil {
		return s.span.Trace
	}
	return ""
}

// CurrentSpan returns the span active on ctx (nil when untraced). Useful
// for attaching attributes or errors to whatever span is in scope.
func CurrentSpan(ctx context.Context) *ActiveSpan { return spanFrom(ctx) }

// StartRequest opens this process's slice of a request's trace. When r
// carries TraceHeader the incoming trace is continued, with the caller's
// SpanHeader as the root's parent. Without it, StartRequest returns
// (r.Context(), nil) after one header lookup — the untraced fast path.
//
// The returned context carries the root span; derive every child from it
// (context.WithTimeout/WithoutCancel preserve it). End the root span to
// commit the trace to the flight recorder.
func (t *Tracer) StartRequest(r *http.Request, name string) (context.Context, *ActiveSpan) {
	ctx := r.Context()
	if t == nil {
		return ctx, nil
	}
	trace := TraceID(r.Header.Get(TraceHeader))
	if trace == "" {
		return ctx, nil
	}
	b := &builder{tracer: t, trace: trace}
	s := &ActiveSpan{
		b:     b,
		root:  true,
		start: time.Now(),
		span: Span{
			Trace:   trace,
			ID:      NewSpanID(),
			Parent:  SpanID(r.Header.Get(SpanHeader)),
			Process: t.process,
			Name:    name,
		},
	}
	s.span.StartUS = s.start.UnixMicro()
	return context.WithValue(ctx, ctxKey{}, s), s
}

// StartSpan opens a child of ctx's current span. On an untraced context
// it returns (ctx, nil) — safe to call unconditionally.
func StartSpan(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	return StartSpanAt(ctx, name, time.Now())
}

// StartSpanAt is StartSpan with an explicit start time, for spans whose
// beginning was only recognised in hindsight (a follower that learns it
// joined a flight when the flight returns, say).
func StartSpanAt(ctx context.Context, name string, start time.Time) (context.Context, *ActiveSpan) {
	parent := spanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := &ActiveSpan{
		b:     parent.b,
		start: start,
		span: Span{
			Trace:   parent.span.Trace,
			ID:      NewSpanID(),
			Parent:  parent.span.ID,
			Process: parent.span.Process,
			Name:    name,
		},
	}
	s.span.StartUS = start.UnixMicro()
	return context.WithValue(ctx, ctxKey{}, s), s
}

// SetAttr attaches a key/value attribute; no-op on nil or after End.
func (s *ActiveSpan) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.span.Attrs == nil {
		s.span.Attrs = make(map[string]string, 4)
	}
	s.span.Attrs[k] = v
}

// SetError marks the span (and so the trace) failed; no-op on nil err.
func (s *ActiveSpan) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.span.Error = err.Error()
	}
}

// End completes the span and records it; ending the root span commits
// the whole process-local trace to the flight recorder. End is
// idempotent and nil-safe.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.span.DurUS = time.Since(s.start).Microseconds()
	span, root, b := s.span, s.root, s.b
	s.mu.Unlock()
	b.add(span)
	if root {
		b.commit()
	}
}

// EndErr is SetError followed by End.
func (s *ActiveSpan) EndErr(err error) {
	s.SetError(err)
	s.End()
}

// ID returns the span id ("" on nil), for propagation and join links.
func (s *ActiveSpan) ID() SpanID {
	if s == nil {
		return ""
	}
	return s.span.ID
}

// TraceID returns the span's trace id ("" on nil).
func (s *ActiveSpan) TraceID() TraceID {
	if s == nil {
		return ""
	}
	return s.span.Trace
}

// Inject writes ctx's trace context onto h so the receiving process can
// continue the trace; a no-op on untraced contexts.
func Inject(ctx context.Context, h http.Header) {
	if s := spanFrom(ctx); s != nil {
		h.Set(TraceHeader, string(s.span.Trace))
		h.Set(SpanHeader, string(s.span.ID))
	}
}
