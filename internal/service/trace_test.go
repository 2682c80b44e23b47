package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"queuemachine/internal/compile"
	"queuemachine/internal/fleet"
	"queuemachine/internal/xtrace"
)

// tracedPost sends body as JSON with an X-Qmd-Trace header and returns
// the response.
func tracedPost(t *testing.T, url string, id xtrace.TraceID, body any) (*http.Response, []byte) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(xtrace.TraceHeader, string(id))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// spanNames indexes spans by name for assertion convenience.
func spanNames(spans []xtrace.Span) map[string][]xtrace.Span {
	byName := make(map[string][]xtrace.Span)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	return byName
}

// TestTracedRunRecordsSpanTree drives one traced /run and checks the
// recorder holds the full span tree: root, queue wait, artifact
// resolution with its compile, and the simulation — all under the
// client's trace id, parented back to the root.
func TestTracedRunRecordsSpanTree(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	id := xtrace.NewTraceID()
	resp, raw := tracedPost(t, ts.URL+"/run", id, map[string]any{"source": sumSquares, "pes": 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get(xtrace.TraceHeader); got != string(id) {
		t.Errorf("response trace header = %q, want %q", got, id)
	}

	spans, ok := svc.traces.Get(id)
	if !ok {
		t.Fatal("traced request not in the flight recorder")
	}
	byName := spanNames(spans)
	for _, want := range []string{"run", "queue.wait", "artifact", "compile", "simulate"} {
		if len(byName[want]) == 0 {
			t.Errorf("no %q span recorded; have %v", want, names(spans))
		}
	}
	roots := byName["run"]
	if len(roots) != 1 {
		t.Fatalf("want exactly one root span, got %d", len(roots))
	}
	root := roots[0]
	if root.Parent != "" {
		t.Errorf("root span has parent %q, want none", root.Parent)
	}
	// Every recorded span belongs to this trace and (except the root)
	// hangs off some other recorded span.
	ids := make(map[xtrace.SpanID]bool, len(spans))
	for _, s := range spans {
		if s.Trace != id {
			t.Errorf("span %s carries trace %q, want %q", s.Name, s.Trace, id)
		}
		ids[s.ID] = true
	}
	for _, s := range spans {
		if s.ID != root.ID && !ids[s.Parent] {
			t.Errorf("span %s parent %q is not a recorded span", s.Name, s.Parent)
		}
	}
	if sim := byName["simulate"][0]; sim.Attrs["cycles"] == "" || sim.Attrs["pes"] != "2" {
		t.Errorf("simulate span attrs = %v, want cycles and pes=2", sim.Attrs)
	}
	if art := byName["artifact"][0]; art.Attrs["cache"] != cacheStateMiss {
		t.Errorf("artifact cache attr = %q, want %q", art.Attrs["cache"], cacheStateMiss)
	}
}

func names(spans []xtrace.Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

// TestUntracedRequestRecordsNothing: without a trace header the recorder
// stays empty — tracing is strictly opt-in per request.
func TestUntracedRequestRecordsNothing(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	status, raw := post(t, ts.URL+"/run", map[string]any{"source": sumSquares}, nil)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if st := svc.traces.Stats(); st.Committed != 0 {
		t.Errorf("untraced request committed %d traces", st.Committed)
	}
}

// TestErrorBodyCarriesTraceID: a traced request that fails returns the
// trace id in its error document — the handle that finds the failure in
// the flight recorder — and the recorded root span is marked failed.
func TestErrorBodyCarriesTraceID(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	id := xtrace.NewTraceID()
	resp, raw := tracedPost(t, ts.URL+"/run", id, map[string]any{"source": "not occam at all ("})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, raw)
	}
	var doc struct {
		Error string `json:"error"`
		Trace string `json:"trace"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("error body %q: %v", raw, err)
	}
	if doc.Error == "" || doc.Trace != string(id) {
		t.Fatalf("error doc = %+v, want error text and trace %q", doc, id)
	}
	spans, ok := svc.traces.Get(id)
	if !ok {
		t.Fatal("failed request's trace not recorded")
	}
	var rootErr string
	for _, s := range spans {
		if s.Parent == "" {
			rootErr = s.Error
		}
	}
	if rootErr == "" {
		t.Error("root span of a failed request carries no error")
	}
}

// TestFollowerJoinsAlreadyFinishedFlight covers the race where a flight
// completes between the follower's map lookup and its wait: the done
// channel is already closed when the follower selects on it. The
// follower must still get the leader's value, be reported as shared, and
// learn the leader's trace id — and the function must not run again.
func TestFollowerJoinsAlreadyFinishedFlight(t *testing.T) {
	leaderTrace := xtrace.NewTraceID()
	f := &flight{
		done:    make(chan struct{}),
		val:     "leader-result",
		trace:   leaderTrace,
		waiters: 1,
		cancel:  func() {},
	}
	close(f.done) // finished before the follower arrives
	g := &flightGroup{flights: map[string]*flight{"k": f}}

	ran := false
	v, err, shared, leader := g.do(context.Background(), "k", func(context.Context) (any, error) {
		ran = true
		return nil, nil
	})
	if ran {
		t.Error("follower re-executed a finished flight's work")
	}
	if err != nil || v != "leader-result" {
		t.Errorf("got (%v, %v), want the leader's result", v, err)
	}
	if !shared {
		t.Error("joining a finished flight not reported as shared")
	}
	if leader != leaderTrace {
		t.Errorf("leader trace = %q, want %q", leader, leaderTrace)
	}
}

// peerPost sends body to url as a peer-marked request, the way
// fleet.Client.FetchCompile does.
func peerPost(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	blob, _ := json.Marshal(body)
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(fleet.PeerHeader, "1")
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Do(req)
	if err != nil {
		t.Fatalf("peer POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// peerOwnedSource returns the n-th small program the ring assigns to
// owner.
func peerOwnedSource(t *testing.T, ring *fleet.Ring, owner string, n int) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		candidate := fmt.Sprintf("var v[1]:\nseq\n  v[0] := %d\n", i)
		if ring.Owner(compile.Fingerprint(candidate, compile.Options{})) != owner {
			continue
		}
		if n == 0 {
			return candidate
		}
		n--
	}
	t.Fatalf("no program owned by %s", owner)
	return ""
}

// TestPeerFetchOneHopBound: a compile that arrived from a peer is never
// forwarded, even when the ring says another replica owns the
// fingerprint — forwarding it again could bounce between replicas
// forever. A peer-marked miss answers 404; without the peer marker the
// same request does consult the owner.
func TestPeerFetchOneHopBound(t *testing.T) {
	var peerHits atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		peerHits.Add(1)
		// Refusing is fine: the fetch attempt is what is under test, and
		// a failed peer degrades to a local compile.
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer peer.Close()

	self := "http://self.invalid"
	peers := []string{self, peer.URL}
	svc, ts := newTestServer(t, Config{Workers: 2, Self: self, Peers: peers})
	src := peerOwnedSource(t, svc.ring, peer.URL, 0)

	if status, raw := peerPost(t, ts.URL+"/compile", map[string]any{"source": src}); status != http.StatusNotFound {
		t.Fatalf("peer-marked miss: status %d: %s, want 404", status, raw)
	}
	if peerHits.Load() != 0 || svc.peerFetches.Load() != 0 {
		t.Fatalf("peer-marked request forwarded (hits=%d, fetches=%d)",
			peerHits.Load(), svc.peerFetches.Load())
	}

	// The same program arriving from a client: the owner is consulted.
	status, raw := post(t, ts.URL+"/compile", map[string]any{"source": src}, nil)
	if status != http.StatusOK {
		t.Fatalf("client compile: status %d: %s", status, raw)
	}
	if svc.peerFetches.Load() != 1 || peerHits.Load() != 1 {
		t.Errorf("peer fetches = %d, owner hits = %d; want 1, 1", svc.peerFetches.Load(), peerHits.Load())
	}
}

// TestPeerLookupAnswersFromMemory: with the only worker held, a
// peer-marked /compile still answers at once. A program in memory comes
// back as a hit; one that is not answers 404 without a compile, a flight,
// a worker, a forward or a counted server error.
func TestPeerLookupAnswersFromMemory(t *testing.T) {
	var peerHits atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		peerHits.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer peer.Close()
	self := "http://self.invalid"
	svc, ts := newTestServer(t, Config{Workers: 1, Self: self, Peers: []string{self, peer.URL}})
	warm := peerOwnedSource(t, svc.ring, self, 0)
	var want compileResponse
	if status, raw := post(t, ts.URL+"/compile", map[string]any{"source": warm}, &want); status != http.StatusOK {
		t.Fatalf("warm compile: status %d: %s", status, raw)
	}

	block := make(chan struct{})
	started := make(chan struct{})
	if err := svc.pool.submit(func() { close(started); <-block }); err != nil {
		t.Fatal(err)
	}
	defer close(block)
	<-started
	before := svc.cache.stats()

	var hit compileResponse
	status, raw := peerPost(t, ts.URL+"/compile", map[string]any{"source": warm})
	if status != http.StatusOK {
		t.Fatalf("peer lookup of a held program: status %d: %s", status, raw)
	}
	if err := json.Unmarshal(raw, &hit); err != nil {
		t.Fatal(err)
	}
	wantObj, _ := json.Marshal(want.Object)
	gotObj, _ := json.Marshal(hit.Object)
	if hit.CacheState != cacheStateHit || string(gotObj) != string(wantObj) {
		t.Errorf("peer hit: cache %q, same object %v; want %q, true",
			hit.CacheState, string(gotObj) == string(wantObj), cacheStateHit)
	}

	for _, cold := range []string{peerOwnedSource(t, svc.ring, self, 1), peerOwnedSource(t, svc.ring, peer.URL, 0)} {
		status, raw := peerPost(t, ts.URL+"/compile", map[string]any{"source": cold})
		var doc map[string]string
		if status != http.StatusNotFound || json.Unmarshal(raw, &doc) != nil || doc["error"] == "" {
			t.Errorf("peer lookup of a cold program: status %d: %s, want a structured 404", status, raw)
		}
	}
	after := svc.cache.stats()
	svc.flights.mu.Lock()
	flights := len(svc.flights.flights)
	svc.flights.mu.Unlock()
	if after.Misses != before.Misses || after.Entries != before.Entries || after.Hits != before.Hits+1 {
		t.Errorf("cache %+v after lookups, want %+v with one more hit and nothing compiled", after, before)
	}
	if flights != 0 || svc.pool.queued() != 0 {
		t.Errorf("lookups left %d flights and %d queued jobs, want none", flights, svc.pool.queued())
	}
	if peerHits.Load() != 0 || svc.peerFetches.Load() != 0 {
		t.Errorf("a lookup was forwarded (owner hits=%d, fetches=%d)", peerHits.Load(), svc.peerFetches.Load())
	}
	if n := svc.fails.Load(); n != 0 {
		t.Errorf("qmd_errors_total = %d after declined lookups, want 0", n)
	}
}

// TestDeclinedPeerLookupIsNotAnError: a cold program on the non-owner
// answers 200 miss after the owner declines the lookup, and its trace
// holds a peer.fetch span marked declined with no error, so the flight
// recorder keeps no error outlier for it. A dead owner still fails the
// span, and that trace is kept.
func TestDeclinedPeerLookupIsNotAnError(t *testing.T) {
	owner, self := newSwappableServer(t), newSwappableServer(t)
	peers := []string{owner.URL(), self.URL()}
	ownerSvc, err := New(Config{Workers: 1, Self: owner.URL(), Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	// A one-trace ring moves each trace to the outlier check as soon as
	// the next one commits.
	svc, err := New(Config{Workers: 1, Self: self.URL(), Peers: peers, TraceCapacity: 1, TraceSlow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	owner.Set(ownerSvc.Handler())
	self.Set(svc.Handler())

	// run answers 200 with the given cache state and returns the
	// trace's peer.fetch spans.
	run := func(src, state string) []xtrace.Span {
		t.Helper()
		id := xtrace.NewTraceID()
		resp, raw := tracedPost(t, self.URL()+"/run", id, map[string]any{"source": src})
		if got := resp.Header.Get(cacheHeader); resp.StatusCode != http.StatusOK || got != state {
			t.Fatalf("run: status %d, cache %q: %s; want 200 %q", resp.StatusCode, got, raw, state)
		}
		spans, _ := svc.traces.Get(id)
		return spanNames(spans)["peer.fetch"]
	}
	cold := peerOwnedSource(t, svc.ring, owner.URL(), 0)
	if f := run(cold, cacheStateMiss); len(f) != 1 || f[0].Attrs["declined"] != "true" || f[0].Error != "" {
		t.Fatalf("declined lookup's peer.fetch spans = %+v, want one marked declined, no error", f)
	}

	owner.ts.Close()
	if f := run(peerOwnedSource(t, svc.ring, owner.URL(), 1), cacheStateMiss); len(f) != 1 || f[0].Error == "" || f[0].Attrs["declined"] != "" {
		t.Fatalf("dead owner's peer.fetch spans = %+v, want one with an error", f)
	}
	if n := svc.traces.Stats().Outliers; n != 0 {
		t.Errorf("%d outliers after the declined lookup's trace left the ring, want 0", n)
	}
	// cold is in memory now, so this run fetches nothing and only pushes
	// the dead owner's trace off the ring.
	if f := run(cold, cacheStateHit); len(f) != 0 {
		t.Fatalf("a memory hit fetched from a peer: %+v", f)
	}
	if n := svc.traces.Stats().Outliers; n != 1 {
		t.Errorf("%d outliers after the failed fetch's trace left the ring, want 1", n)
	}
	if n := svc.peerErrors.Load(); n != 2 {
		t.Errorf("qmd_peer_errors_total = %d, want 2 (declined and failed)", n)
	}
}
