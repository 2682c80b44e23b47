package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"queuemachine/internal/compile"
	"queuemachine/internal/fleet"
	"queuemachine/internal/isa"
	"queuemachine/internal/pe"
	"queuemachine/internal/profile"
	"queuemachine/internal/sched"
	"queuemachine/internal/sim"
	"queuemachine/internal/xtrace"
)

// compileOptions is the wire form of compile.Options; the shape lives in
// the fleet package so the peer client and the qgate request parser share
// it with these handlers.
type compileOptions = fleet.CompileOptions

type compileRequest struct {
	Source    string         `json:"source"`
	Options   compileOptions `json:"options"`
	TimeoutMS int64          `json:"timeout_ms,omitempty"`
}

type compileResponse struct {
	Fingerprint string `json:"fingerprint"`
	Cached      bool   `json:"cached"`
	// CacheState records where the artifact came from: "hit" (memory),
	// "disk", "peer", or "miss" (compiled here). A follower coalesced
	// onto another request's compile reports "coalesced" instead.
	CacheState string      `json:"cache,omitempty"`
	Coalesced  bool        `json:"coalesced,omitempty"`
	Graphs     int         `json:"graphs"`
	DataWords  int         `json:"data_words"`
	Object     *isa.Object `json:"object"`
}

type runRequest struct {
	// Exactly one of Source and Object names the program. Source is
	// compiled (through the artifact cache); Object is executed as given.
	Source  string         `json:"source,omitempty"`
	Object  *isa.Object    `json:"object,omitempty"`
	Options compileOptions `json:"options"`
	// PEs is the simulated machine size (default 1).
	PEs int `json:"pes,omitempty"`
	// Scheduler selects the kernel scheduling policy by name ("fifo",
	// "locality", "steal", "critpath"; empty keeps the thesis FIFO
	// baseline). A convenience over params.Scheduler.Policy; when both are
	// present this field wins. Unknown names are rejected with 400 and the
	// valid list.
	Scheduler string `json:"scheduler,omitempty"`
	// Params overlays fields onto the service's base sim.Params.
	Params    json.RawMessage `json:"params,omitempty"`
	TimeoutMS int64           `json:"timeout_ms,omitempty"`
	DumpData  bool            `json:"dump_data,omitempty"`
	// Profile attaches a cycle-attribution profile and critical path to the
	// run's stats. Profiling observes without altering timing — cycle
	// counts are identical either way — but costs host time recording the
	// event stream, so it is opt-in.
	Profile bool `json:"profile,omitempty"`
}

type runResponse struct {
	Fingerprint string `json:"fingerprint,omitempty"`
	Cached      bool   `json:"cached"`
	// CacheState and Coalesced mirror the compile response: where the
	// artifact came from, and whether this response rode another
	// request's in-flight execution. The simulation itself always ran
	// exactly once per coalition.
	CacheState string    `json:"cache,omitempty"`
	Coalesced  bool      `json:"coalesced,omitempty"`
	Stats      *RunStats `json:"stats"`
}

// httpError carries a status code chosen at the point the failure is
// understood; everything else maps through toStatus.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

func toStatus(err error) int {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.status
	case errors.Is(err, errBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, errClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// retryAfterSeconds bounds the jittered Retry-After value on 429s.
const (
	retryAfterMin = 1
	retryAfterMax = 3
)

// retryAfter picks the shed response's Retry-After delay. The base guess
// is one in-flight simulation (~1s); the jitter spreads synchronized
// clients — a fleet of identical pollers all told "1" would re-stampede
// on the same second and shed again, forever.
func retryAfter() string {
	return strconv.Itoa(retryAfterMin + rand.IntN(retryAfterMax-retryAfterMin+1))
}

// error writes the structured JSON error document for err. On a traced
// request the document carries the trace id — the handle that finds the
// failure in a flight recorder — and the active span is marked failed so
// the trace is retained as an error outlier.
func (s *Service) error(ctx context.Context, w http.ResponseWriter, err error) {
	status := toStatus(err)
	if status == http.StatusTooManyRequests {
		s.rejected.Inc()
		w.Header().Set("Retry-After", retryAfter())
	} else {
		s.fails.Inc()
	}
	doc := map[string]string{"error": err.Error()}
	if id := xtrace.TraceIDFrom(ctx); id != "" {
		doc["trace"] = string(id)
		xtrace.CurrentSpan(ctx).SetError(err)
	}
	writeJSON(w, status, doc)
}

// echoTrace reflects a traced request's id back on the response so a
// client (or the qload sampler) can find the trace in /debugz/traces
// without parsing the body.
func echoTrace(w http.ResponseWriter, root *xtrace.ActiveSpan) {
	if id := root.TraceID(); id != "" {
		w.Header().Set(xtrace.TraceHeader, string(id))
	}
}

// joinSpan records a coalesced follower's wait as a zero-work `join`
// span: it began when the follower entered the flight (start) and points
// at the leader's trace, where the compile/simulate spans actually live.
func joinSpan(ctx context.Context, start time.Time, leader xtrace.TraceID) {
	_, sp := xtrace.StartSpanAt(ctx, "join", start)
	if sp == nil {
		return
	}
	if leader != "" {
		sp.SetAttr("leader_trace", string(leader))
	}
	sp.End()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// decode reads a bounded JSON request body.
func (s *Service) decode(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &httpError{http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
		}
		return badRequest("malformed request: %v", err)
	}
	return nil
}

// cacheStateDisk through cacheStateCoalesced are the X-Qmd-Cache header
// values beyond the original "hit"/"miss"; hitMiss keeps those two.
const (
	cacheStateHit       = "hit"
	cacheStateMiss      = "miss"
	cacheStateDisk      = "disk"
	cacheStatePeer      = "peer"
	cacheStateCoalesced = "coalesced"
)

// materialize produces the program for a fingerprint that already
// missed the in-memory cache, in cost order: the disk tier, then the
// owning peer's memory (when a fleet is configured and this replica is
// not the owner), then a local compile. Whatever produced the object, it
// is loaded (pe.LoadProgram) once and lands in the memory cache as a
// run-ready program; local compiles are also persisted to disk. Compile
// failures are the client's fault, not the server's: 422.
func (s *Service) materialize(ctx context.Context, src string, opts compile.Options, fp string) (*pe.Program, string, error) {
	if s.disk != nil {
		_, ds := xtrace.StartSpan(ctx, "disk.read")
		prog, ok := s.disk.get(fp)
		ds.End()
		if ok {
			s.cache.add(fp, prog)
			return prog, cacheStateDisk, nil
		}
	}
	if s.ring != nil {
		if owner := s.ring.Owner(fp); owner != "" && owner != s.self {
			s.peerFetches.Inc()
			// The fetch runs under its own span's context so the peer's
			// compile spans arrive parented to it across the hop.
			pctx, ps := xtrace.StartSpan(ctx, "peer.fetch")
			ps.SetAttr("peer", owner)
			obj, err := s.peers.FetchCompile(pctx, owner, src, opts)
			var prog *pe.Program
			if err == nil {
				prog, err = pe.LoadProgram(obj)
			}
			if err == nil {
				ps.End()
				s.peerHits.Inc()
				s.cache.add(fp, prog)
				return prog, cacheStatePeer, nil
			}
			// A dead or slow owner, or an object that fails to load,
			// degrades to a local compile; the request must not fail
			// because a peer did.
			ps.EndErr(err)
			s.peerErrors.Inc()
		}
	}
	_, cs := xtrace.StartSpan(ctx, "compile")
	// Only the object program outlives this call; the rest of the
	// artifact (AST, IFT, graph info, assembly text) is garbage as soon
	// as it returns.
	art, err := compile.Compile(src, opts)
	var prog *pe.Program
	if err == nil {
		prog, err = pe.LoadProgram(art.Object)
	}
	if err != nil {
		herr := &httpError{http.StatusUnprocessableEntity, err.Error()}
		cs.EndErr(herr)
		return nil, cacheStateMiss, herr
	}
	cs.End()
	s.cache.add(fp, prog)
	if s.disk != nil {
		s.disk.put(fp, prog.Obj)
	}
	return prog, cacheStateMiss, nil
}

// programFor resolves src's program through every cache tier. The
// in-memory lookup counts a hit or a miss exactly once per request that
// reaches it; coalesced followers never get here, which is what keeps
// them out of the cache accounting.
func (s *Service) programFor(ctx context.Context, src string, opts compile.Options, fp string) (*pe.Program, string, error) {
	ctx, span := xtrace.StartSpan(ctx, "artifact")
	prog, state, err := func() (*pe.Program, string, error) {
		if prog, ok := s.cache.get(fp); ok {
			return prog, cacheStateHit, nil
		}
		return s.materialize(ctx, src, opts, fp)
	}()
	span.SetAttr("cache", state)
	if err != nil {
		span.EndErr(err)
	} else {
		span.End()
	}
	return prog, state, err
}

func (s *Service) handleCompile(w http.ResponseWriter, r *http.Request) {
	defer s.compileSeconds.ObserveSince(time.Now())
	s.compiles.Inc()
	rctx, root := s.tracer.StartRequest(r, "compile")
	defer root.End()
	echoTrace(w, root)
	if s.draining.Load() {
		s.error(rctx, w, errClosed)
		return
	}
	var req compileRequest
	if err := s.decode(w, r, &req); err != nil {
		s.error(rctx, w, err)
		return
	}
	if req.Source == "" {
		s.error(rctx, w, badRequest("missing source"))
		return
	}
	opts := req.Options.ToCompile()
	fp := compile.Fingerprint(req.Source, opts)
	// Memory hits are served on the handler goroutine: they cost no
	// compile and no simulation, so they never contend for a worker and
	// cannot be shed by admission control. peek (not get) so an absent
	// entry is not charged as a miss here — the flight leader's counting
	// lookup below decides hit or miss exactly once per coalition.
	if prog, ok := s.cache.peek(fp); ok {
		root.SetAttr("cache", cacheStateHit)
		resp := newCompileResponse(fp, cacheStateHit, prog.Obj)
		w.Header().Set(cacheHeader, resp.CacheState)
		writeJSON(w, http.StatusOK, resp)
		return
	}
	// A peer gets only what this replica holds in memory: a lookup never
	// compiles, takes a worker or forwards, so it cannot wait on the
	// asker's worker. A declined lookup is not a server failure.
	if r.Header.Get(fleet.PeerHeader) != "" {
		root.SetAttr("cache", cacheStateMiss)
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "program not in memory"})
		return
	}
	ctx, cancel := context.WithTimeout(rctx, s.deadline(req.TimeoutMS))
	defer cancel()
	flightStart := time.Now()
	v, err, shared, leader := s.flights.do(ctx, "compile\x00"+fp, func(ctx context.Context) (any, error) {
		return s.execute(ctx, func(ctx context.Context) (any, error) {
			prog, state, err := s.programFor(ctx, req.Source, opts, fp)
			if err != nil {
				return nil, err
			}
			return newCompileResponse(fp, state, prog.Obj), nil
		})
	})
	if shared {
		s.coalescedCompiles.Inc()
		joinSpan(ctx, flightStart, leader)
	}
	if err != nil {
		s.error(ctx, w, err)
		return
	}
	if cr, ok := v.(*compileResponse); ok {
		if shared {
			cp := *cr
			cp.Coalesced = true
			cp.CacheState = cacheStateCoalesced
			cr = &cp
			v = cr
		}
		w.Header().Set(cacheHeader, cr.CacheState)
	}
	writeJSON(w, http.StatusOK, v)
}

// newCompileResponse projects an object program into the compile wire
// response.
func newCompileResponse(fp, state string, obj *isa.Object) *compileResponse {
	return &compileResponse{
		Fingerprint: fp,
		Cached:      state != cacheStateMiss,
		CacheState:  state,
		Graphs:      len(obj.Graphs),
		DataWords:   obj.DataWords,
		Object:      obj,
	}
}

func hitMiss(cached bool) string {
	if cached {
		return cacheStateHit
	}
	return cacheStateMiss
}

// runKey canonicalizes everything that determines a run's result and
// response body; two requests with equal keys are interchangeable and
// coalesce onto one execution. The request timeout is deliberately
// excluded: it bounds waiting, not the result.
type runKey struct {
	Fingerprint string     `json:"fp,omitempty"`
	ObjectHash  string     `json:"obj,omitempty"`
	PEs         int        `json:"pes"`
	Params      sim.Params `json:"params"`
	DumpData    bool       `json:"dump"`
	Profile     bool       `json:"profile"`
}

func (k runKey) String() string {
	blob, err := json.Marshal(k)
	if err != nil {
		// sim.Params is a plain data struct; marshal cannot fail. Fall
		// back to an uncoalescible unique key rather than panicking.
		return fmt.Sprintf("run-unkeyed\x00%p", &k)
	}
	sum := sha256.Sum256(blob)
	return "run\x00" + hex.EncodeToString(sum[:])
}

func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	defer s.runSeconds.ObserveSince(time.Now())
	s.runs.Inc()
	rctx, root := s.tracer.StartRequest(r, "run")
	defer root.End()
	echoTrace(w, root)
	if s.draining.Load() {
		s.error(rctx, w, errClosed)
		return
	}
	var req runRequest
	if err := s.decode(w, r, &req); err != nil {
		s.error(rctx, w, err)
		return
	}
	if (req.Source == "") == (req.Object == nil) {
		s.error(rctx, w, badRequest("provide exactly one of source and object"))
		return
	}
	pes := req.PEs
	if pes == 0 {
		pes = 1
	}
	if pes < 1 || pes > s.cfg.MaxPEs {
		s.error(rctx, w, badRequest("pes %d out of range [1, %d]", pes, s.cfg.MaxPEs))
		return
	}
	params := *s.cfg.Sim
	if len(req.Params) > 0 {
		dec := json.NewDecoder(bytes.NewReader(req.Params))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&params); err != nil {
			s.error(rctx, w, badRequest("malformed params: %v", err))
			return
		}
	}
	if req.Scheduler != "" {
		params.Scheduler.Policy = req.Scheduler
	}
	if !sched.Valid(params.Scheduler.Policy) {
		s.error(rctx, w, badRequest("unknown scheduler %q (valid: %s)",
			params.Scheduler.Policy, strings.Join(sched.Names(), ", ")))
		return
	}
	// The response only carries the data segment when the client asked
	// for it, so skip the per-run O(DataWords) copy otherwise. Resolved
	// before keying: KeepData changes the response body.
	params.KeepData = req.DumpData

	opts := req.Options.ToCompile()
	key := runKey{PEs: pes, Params: params, DumpData: req.DumpData, Profile: req.Profile}
	if req.Source != "" {
		key.Fingerprint = compile.Fingerprint(req.Source, opts)
	} else {
		blob, err := json.Marshal(req.Object)
		if err != nil {
			s.error(rctx, w, badRequest("malformed object: %v", err))
			return
		}
		sum := sha256.Sum256(blob)
		key.ObjectHash = hex.EncodeToString(sum[:])
	}

	ctx, cancel := context.WithTimeout(rctx, s.deadline(req.TimeoutMS))
	defer cancel()
	flightStart := time.Now()
	v, err, shared, leader := s.flights.do(ctx, key.String(), func(ctx context.Context) (any, error) {
		return s.execute(ctx, func(ctx context.Context) (any, error) {
			resp := &runResponse{}
			var prog *pe.Program
			if req.Source != "" {
				p, state, err := s.programFor(ctx, req.Source, opts, key.Fingerprint)
				if err != nil {
					return nil, err
				}
				prog, resp.Fingerprint = p, key.Fingerprint
				resp.Cached, resp.CacheState = state != cacheStateMiss, state
			}
			// The simulate span is the wall-clock face of the run: its
			// attributes name the same execution the simulated-machine
			// artifacts describe (internal/trace timelines, the
			// internal/profile attribution on the response), so a stitched
			// trace links to them by fingerprint and cycle count.
			sctx, sspan := xtrace.StartSpan(ctx, "simulate")
			sspan.SetAttr("pes", strconv.Itoa(pes))
			simStart := time.Now()
			res, profiler, err := simulate(sctx, prog, req.Object, pes, params, req.Profile)
			simTime := time.Since(simStart)
			if err != nil {
				sspan.EndErr(err)
				if ctx.Err() != nil {
					return nil, err // maps to 504 via the wrapped context error
				}
				// Deadlocks, watchdog trips, and malformed objects are
				// properties of the submitted program.
				return nil, &httpError{http.StatusUnprocessableEntity, err.Error()}
			}
			sspan.SetAttr("scheduler", params.Scheduler.Name())
			sspan.SetAttr("cycles", strconv.FormatInt(res.Cycles, 10))
			sspan.SetAttr("instructions", strconv.FormatInt(res.Instructions, 10))
			if profiler != nil {
				sspan.SetAttr("profiled", "true")
			}
			sspan.End()
			s.cyclesServed.Add(res.Cycles)
			s.instrsServed.Add(res.Instructions)
			s.simNanos.Add(int64(simTime))
			s.recordSched(params.Scheduler.Name(), res.Kernel.Migrations, res.Kernel.Steals)
			resp.Stats = NewRunStats(res, req.DumpData)
			resp.Stats.Scheduler = params.Scheduler.Name()
			resp.Stats.SetHostTime(simTime)
			if profiler != nil {
				resp.Stats.Profile = profiler.Finalize(res.Cycles)
				s.recordCauses(resp.Stats.Profile)
			}
			return resp, nil
		})
	})
	if shared {
		s.coalescedRuns.Inc()
		joinSpan(ctx, flightStart, leader)
	}
	if err != nil {
		s.error(ctx, w, err)
		return
	}
	if rr, ok := v.(*runResponse); ok {
		if shared {
			// Followers share the leader's stats but report their own
			// provenance: they rode a flight, they did not consult the
			// artifact cache.
			cp := *rr
			cp.Coalesced = true
			cp.CacheState = cacheStateCoalesced
			rr = &cp
			v = rr
			w.Header().Set(cacheHeader, cacheStateCoalesced)
		} else if rr.CacheState != "" {
			// The cache only took part when the request came in as source.
			w.Header().Set(cacheHeader, rr.CacheState)
		}
	}
	writeJSON(w, http.StatusOK, v)
}

// simulate runs one request's simulation. prog is the shared cached
// program of a source request: the machine is built over it and nothing
// is decoded again. A request that supplied its object instead (prog
// nil) loads it for this run alone, as it has no fingerprint to cache it
// under. The profiler is non-nil only when profiled.
func simulate(ctx context.Context, prog *pe.Program, obj *isa.Object, pes int, params sim.Params, profiled bool) (*sim.Result, *profile.Profiler, error) {
	if prog == nil {
		var err error
		if prog, err = pe.LoadProgram(obj); err != nil {
			return nil, nil, err
		}
	}
	sys, err := sim.NewProgram(prog, pes, params)
	if err != nil {
		return nil, nil, err
	}
	var profiler *profile.Profiler
	if profiled {
		profiler = profile.New(pes)
		names := make([]string, len(prog.Obj.Graphs))
		for i, g := range prog.Obj.Graphs {
			names[i] = g.Name
		}
		profiler.SetGraphNames(names)
		sys.SetRecorder(profiler)
	}
	res, err := sys.RunContext(ctx)
	return res, profiler, err
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Service) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
