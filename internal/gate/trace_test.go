package gate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"queuemachine/internal/compile"
	"queuemachine/internal/fleet"
	"queuemachine/internal/service"
	"queuemachine/internal/xtrace"
)

// tracedPost sends body to url with a fresh trace id and returns the
// response, its body, and the client-measured wall time.
func tracedPost(t *testing.T, url string, id xtrace.TraceID, body []byte) (*http.Response, []byte, time.Duration) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(xtrace.TraceHeader, string(id))
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	wall := time.Since(start)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, raw, wall
}

// committedTrace reads a trace from rec once its root span is in. A
// process commits its root span when its handler returns, which can be
// just after the client has read the whole response, so it reads until
// the root is there or a deadline passes, then returns what it has.
func committedTrace(rec *xtrace.Recorder, id xtrace.TraceID, root string) ([]xtrace.Span, bool) {
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		spans, ok := rec.Get(id)
		for _, s := range spans {
			if s.Name == root {
				return spans, ok
			}
		}
		if time.Now().After(deadline) {
			return spans, ok
		}
	}
}

// TestFailoverRecordsTwoAttemptSpans: when the owning replica is dead
// the gate fails over mid-request, and the trace shows both routing
// decisions — the failed attempt with its transport error and the
// successful one marked as a failover — under one trace.
func TestFailoverRecordsTwoAttemptSpans(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // the port now refuses connections
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ok": true}`)
	}))
	defer live.Close()

	urls := []string{deadURL, live.URL}
	g, err := New(Config{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	// No health loop: both replicas stay optimistically on the ring, so
	// the dead one is tried first when it owns the key.
	gateSrv := httptest.NewServer(g.Handler())
	defer gateSrv.Close()

	// Find a program the ring assigns to the dead replica.
	ring := fleet.NewRing(urls, 0)
	var body []byte
	for i := 0; ; i++ {
		if i > 200 {
			t.Fatal("no program owned by the dead replica")
		}
		src := fmt.Sprintf("var v[1]:\nseq\n  v[0] := %d\n", i)
		if ring.Owner(compile.Fingerprint(src, compile.Options{})) == deadURL {
			body, _ = json.Marshal(map[string]any{"source": src})
			break
		}
	}

	id := xtrace.NewTraceID()
	resp, raw, _ := tracedPost(t, gateSrv.URL+"/run", id, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover run: status %d: %s", resp.StatusCode, raw)
	}

	spans, ok := committedTrace(g.traces, id, "proxy")
	if !ok {
		t.Fatal("failover request's trace not in the gate recorder")
	}
	var attempts []xtrace.Span
	var root xtrace.Span
	for _, s := range spans {
		switch s.Name {
		case "gate.attempt":
			attempts = append(attempts, s)
		case "proxy":
			root = s
		}
		if s.Trace != id {
			t.Errorf("span %s under trace %q, want %q", s.Name, s.Trace, id)
		}
	}
	if len(attempts) != 2 {
		t.Fatalf("got %d attempt spans, want 2 (failed + failover)", len(attempts))
	}
	var failed, succeeded *xtrace.Span
	for i := range attempts {
		if attempts[i].Error != "" {
			failed = &attempts[i]
		} else {
			succeeded = &attempts[i]
		}
	}
	if failed == nil || succeeded == nil {
		t.Fatalf("want one failed and one successful attempt, got %+v", attempts)
	}
	if failed.Attrs["replica"] != deadURL {
		t.Errorf("failed attempt names replica %q, want the dead %q", failed.Attrs["replica"], deadURL)
	}
	if succeeded.Attrs["replica"] != live.URL || succeeded.Attrs["failover"] != "1" {
		t.Errorf("successful attempt attrs = %v, want replica %q marked failover=1",
			succeeded.Attrs, live.URL)
	}
	if succeeded.Attrs["status"] != "200" {
		t.Errorf("successful attempt status attr = %q, want 200", succeeded.Attrs["status"])
	}
	if failed.Parent != root.ID || succeeded.Parent != root.ID {
		t.Error("attempt spans are not children of the proxy root")
	}
}

// lateHandler lets a test allocate a listener (and learn its URL) before
// the handler that needs that URL exists.
type lateHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (l *lateHandler) set(h http.Handler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	h := l.h
	l.mu.Unlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// slowSource builds a distinct program per seed whose simulation runs
// long enough (a multi-thousand-iteration loop) that concurrent
// identical requests reliably overlap in flight and tracing overhead is
// negligible against it.
func slowSource(seed int) string {
	return fmt.Sprintf(
		"var v[1], k:\nseq\n  k := %d\n  while k < 20000\n    k := k + 1\n  v[0] := k\n", seed)
}

// TestStitchedTraceEndToEnd is the whole observability story in one run:
// a fleet of two peered replicas behind a gate whose ring deliberately
// disagrees with the replicas' peer ring (16 vs the default 64 virtual
// nodes), so the gate routes some program to a replica that is not its
// peer-ring owner and that replica must peer-fetch the artifact from the
// owner's memory.
// Concurrent identical traced requests then coalesce on the serving
// replica. The leader's trace, stitched at the gate, must be a single
// trace spanning gate, serving replica, and peer — covering at least 95%
// of the client-observed wall time — and a follower's trace must carry a
// join span pointing at the leader's trace.
func TestStitchedTraceEndToEnd(t *testing.T) {
	// Two real replicas whose Self/Peers are their actual URLs.
	var urls []string
	var lates []*lateHandler
	for i := 0; i < 2; i++ {
		lh := &lateHandler{}
		ts := httptest.NewServer(lh)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
		lates = append(lates, lh)
	}
	var svcs []*service.Service
	for i := range urls {
		svc, err := service.New(service.Config{
			Workers: 1, // one worker: overlapping identical runs must coalesce
			Self:    urls[i],
			Peers:   urls,
			Process: urls[i],
		})
		if err != nil {
			t.Fatalf("service.New: %v", err)
		}
		svcs = append(svcs, svc)
		lates[i].set(svc.Handler())
	}
	_ = svcs

	const gateVnodes = 16 // deliberate mismatch with the peer ring's 64
	g, err := New(Config{Replicas: urls, VirtualNodes: gateVnodes})
	if err != nil {
		t.Fatal(err)
	}
	gateSrv := httptest.NewServer(g.Handler())
	t.Cleanup(gateSrv.Close)

	gateRing := fleet.NewRing(urls, gateVnodes)
	peerRing := fleet.NewRing(urls, 0)

	// nextSplitSource yields programs the two rings disagree about, so the
	// gate-chosen replica has to peer-fetch from the peer-ring owner.
	seed := 0
	nextSplitSource := func() (src string, gateOwner, peerOwner string) {
		for {
			seed++
			if seed > 5000 {
				t.Fatal("no program where gate routing and peer ownership disagree")
			}
			src = slowSource(seed)
			fp := compile.Fingerprint(src, compile.Options{})
			gateOwner = gateRing.Owner(fp)
			peerOwner = peerRing.Owner(fp)
			if gateOwner != peerOwner {
				return src, gateOwner, peerOwner
			}
		}
	}

	type outcome struct {
		id        xtrace.TraceID
		status    int
		coalesced bool
		cache     string
		wall      time.Duration
	}

	// A round may miss coalescing if the scheduler happens to serialize
	// the requests; retry with a fresh program until one round shows both
	// a peer-fetch leader and a coalesced follower.
	const rounds = 5
	const n = 4
	for round := 0; round < rounds; round++ {
		src, _, peerOwner := nextSplitSource()
		// A peer answers a fetch from memory only, so warm the peer-ring
		// owner first: the serving replica's fetch then returns the object.
		warmup, _ := json.Marshal(map[string]any{"source": src})
		if resp, raw, _ := tracedPost(t, peerOwner+"/compile", xtrace.NewTraceID(), warmup); resp.StatusCode != http.StatusOK {
			t.Fatalf("warming %s: status %d: %s", peerOwner, resp.StatusCode, raw)
		}
		body, _ := json.Marshal(map[string]any{"source": src, "pes": 2})

		results := make([]outcome, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				id := xtrace.NewTraceID()
				resp, raw, wall := tracedPost(t, gateSrv.URL+"/run", id, body)
				var out struct {
					Coalesced  bool   `json:"coalesced"`
					CacheState string `json:"cache"`
				}
				json.Unmarshal(raw, &out)
				results[i] = outcome{id, resp.StatusCode, out.Coalesced, out.CacheState, wall}
			}()
		}
		wg.Wait()

		var leader, follower *outcome
		for i := range results {
			if results[i].status != http.StatusOK {
				t.Fatalf("round %d request %d: status %d", round, i, results[i].status)
			}
			switch {
			case !results[i].coalesced && results[i].cache == "peer":
				leader = &results[i]
			case results[i].coalesced:
				follower = &results[i]
			}
		}
		if leader == nil || follower == nil {
			continue // no overlap this round; try a fresh program
		}

		// Pull the fleet-stitched view of the leader's trace from the gate.
		// Each process commits its root span when its handler returns,
		// which can be just after the client has read the whole response,
		// so fetch until every expected span is there or a deadline passes.
		wantSpans := []string{"proxy", "gate.attempt", "run", "artifact", "peer.fetch", "simulate", "compile"}
		var doc struct {
			ID    xtrace.TraceID `json:"id"`
			Spans []xtrace.Span  `json:"spans"`
		}
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			resp, err := http.Get(gateSrv.URL + "/debugz/traces?id=" + string(leader.id))
			if err != nil {
				t.Fatal(err)
			}
			doc.Spans = nil
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
				t.Fatalf("decode stitched trace: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("stitched trace: status %d", resp.StatusCode)
			}
			seen := make(map[string]bool)
			for _, s := range doc.Spans {
				seen[s.Name] = true
			}
			committed := true
			for _, want := range wantSpans {
				committed = committed && seen[want]
			}
			if committed || time.Now().After(deadline) {
				break
			}
		}
		if doc.ID != leader.id {
			t.Fatalf("stitched doc id = %q, want %q", doc.ID, leader.id)
		}

		byName := make(map[string][]xtrace.Span)
		processes := make(map[string]bool)
		for _, s := range doc.Spans {
			if s.Trace != leader.id {
				t.Errorf("stitched span %s/%s carries trace %q — not a single trace",
					s.Process, s.Name, s.Trace)
			}
			byName[s.Name] = append(byName[s.Name], s)
			processes[s.Process] = true
		}
		for _, want := range wantSpans {
			if len(byName[want]) == 0 {
				t.Errorf("stitched trace missing %q span", want)
			}
		}
		if !processes["qgate"] {
			t.Error("no gate spans in the stitched view")
		}
		if !processes[peerOwner] {
			t.Errorf("no spans from the peer-ring owner %s: peer fetch did not cross processes (have %v)",
				peerOwner, processes)
		}
		if len(processes) < 3 {
			t.Errorf("stitched trace spans %d processes, want gate + serving replica + peer", len(processes))
		}

		// The gate's root span must account for at least 95% of what the
		// client measured: the trace explains the latency, not a sliver of it.
		if roots := byName["proxy"]; len(roots) == 1 {
			covered := time.Duration(roots[0].DurUS) * time.Microsecond
			if covered < leader.wall*95/100 {
				t.Errorf("stitched root covers %v of %v client wall time (< 95%%)", covered, leader.wall)
			}
		} else {
			t.Errorf("stitched trace has %d proxy roots, want 1", len(byName["proxy"]))
		}

		// The follower's own trace records its coalesced join, pointing at
		// the leader's trace where the real work lives.
		fresp, err := http.Get(gateSrv.URL + "/debugz/traces?id=" + string(follower.id))
		if err != nil {
			t.Fatal(err)
		}
		var fdoc struct {
			Spans []xtrace.Span `json:"spans"`
		}
		if err := json.NewDecoder(fresp.Body).Decode(&fdoc); err != nil {
			t.Fatalf("decode follower trace: %v", err)
		}
		fresp.Body.Close()
		var join *xtrace.Span
		for i := range fdoc.Spans {
			if fdoc.Spans[i].Name == "join" {
				join = &fdoc.Spans[i]
			}
		}
		if join == nil {
			t.Fatal("follower trace has no join span")
		}
		if got := join.Attrs["leader_trace"]; got != string(leader.id) {
			t.Errorf("join leader_trace = %q, want %q", got, leader.id)
		}
		return // full round observed and verified
	}
	t.Fatalf("no round out of %d produced both a peer-fetch leader and a coalesced follower", rounds)
}
