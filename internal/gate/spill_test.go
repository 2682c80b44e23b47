package gate

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"queuemachine/internal/fleet"
	"queuemachine/internal/service"
	"queuemachine/internal/xtrace"
)

// blockingReplica is a fake qmd that advertises a worker count and holds
// every POST until the test releases it, so the gate's view of each
// replica's load is exactly the requests the test has left open.
type blockingReplica struct {
	*httptest.Server
	arrived chan string   // the path of each POST, on arrival
	release chan struct{} // one value lets one held POST answer
	stop    chan struct{} // closed at cleanup: every held POST answers
}

func newBlockingReplica(t *testing.T, workers string) *blockingReplica {
	t.Helper()
	// The channels are buffered beyond any test's request count, so
	// neither the handlers nor the test block on them.
	b := &blockingReplica{arrived: make(chan string, 64), release: make(chan struct{}, 64),
		stop: make(chan struct{})}
	b.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if workers != "" {
			w.Header().Set(fleet.WorkersHeader, workers)
		}
		io.Copy(io.Discard, r.Body)
		b.arrived <- r.URL.Path
		select {
		case <-b.release:
		case <-b.stop:
		case <-r.Context().Done():
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ok":true}`)
	}))
	t.Cleanup(b.Close)
	return b
}

// waitArrival fails the test unless a POST reaches b within a few seconds.
func (b *blockingReplica) waitArrival(t *testing.T) string {
	t.Helper()
	select {
	case path := <-b.arrived:
		return path
	case <-time.After(5 * time.Second):
		t.Fatalf("no request reached %s", b.URL)
		return ""
	}
}

// spillFleet is a gate over blocking replicas with no health loop, so
// every replica stays on the ring.
type spillFleet struct {
	g        *Gate
	front    *httptest.Server
	replicas []*blockingReplica
	urls     []string
}

func newSpillFleet(t *testing.T, n int, workers string) *spillFleet {
	t.Helper()
	f := &spillFleet{}
	for range n {
		b := newBlockingReplica(t, workers)
		f.replicas = append(f.replicas, b)
		f.urls = append(f.urls, b.URL)
	}
	g, err := New(Config{Replicas: f.urls})
	if err != nil {
		t.Fatal(err)
	}
	f.g = g
	f.front = httptest.NewServer(g.Handler())
	t.Cleanup(f.front.Close)
	// Registered last, so it runs first: a test that fails with requests
	// still held lets them finish before the servers wait for them.
	t.Cleanup(func() {
		for _, b := range f.replicas {
			close(b.stop)
		}
	})
	return f
}

// body returns the salt-th distinct request body whose ring owner is
// replica i.
func (f *spillFleet) body(t *testing.T, i, salt int) []byte {
	t.Helper()
	for k, found := 0, 0; k < 10000; k++ {
		b := fmt.Appendf(nil, `{"source":"var v[1]:\nseq\n  v[0] := %d\n"}`, k)
		if f.g.ring.Owner(shardKey(b)) != f.urls[i] {
			continue
		}
		if found == salt {
			return b
		}
		found++
	}
	t.Fatalf("no body owned by replica %d", i)
	return nil
}

// answer is one proxied response as the client saw it.
type answer struct {
	status  int
	replica string
	err     error
}

// send posts body to the gate in the background; the answer arrives on
// the returned channel.
func (f *spillFleet) send(ctx context.Context, path string, body []byte, hdr http.Header) <-chan answer {
	out := make(chan answer, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.front.URL+path, bytes.NewReader(body))
		if err != nil {
			out <- answer{err: err}
			return
		}
		for k, v := range hdr {
			req.Header[k] = v
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			out <- answer{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		out <- answer{status: resp.StatusCode, replica: resp.Header.Get(ReplicaHeader)}
	}()
	return out
}

// hold sends a /run owned by replica i and waits until that replica
// holds it.
func (f *spillFleet) hold(t *testing.T, i int, body []byte) <-chan answer {
	t.Helper()
	ch := f.send(context.Background(), "/run", body, nil)
	f.replicas[i].waitArrival(t)
	return ch
}

// learn lets every replica answer one request so the gate knows their
// advertised worker counts.
func (f *spillFleet) learn(t *testing.T) {
	t.Helper()
	for i, b := range f.replicas {
		b.release <- struct{}{}
		if a := <-f.send(context.Background(), "/compile", f.body(t, i, 1000), nil); a.err != nil || a.replica != f.urls[i] {
			t.Fatalf("learning replica %d: %+v", i, a)
		}
		b.waitArrival(t)
	}
}

// finish releases the requests replica i holds for chs and checks that
// each answer came from it. A release goes to whichever held request
// takes it first, so all of a replica's held requests finish together.
func (f *spillFleet) finish(t *testing.T, i int, chs ...<-chan answer) {
	t.Helper()
	for range chs {
		f.replicas[i].release <- struct{}{}
	}
	for _, ch := range chs {
		a := <-ch
		if a.err != nil || a.status != http.StatusOK {
			t.Fatalf("answer: %+v", a)
		}
		if a.replica != f.urls[i] {
			t.Errorf("served by %s, want replica %d (%s)", a.replica, i, f.urls[i])
		}
	}
}

// settled waits until the gate counts nothing in flight on any replica.
// A relay's claim ends just after its last byte reaches the client, so
// the counts are polled, not read once.
func (f *spillFleet) settled(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		f.g.mu.Lock()
		busy := map[string]int{}
		for url, st := range f.g.replicas {
			if st.inflight != 0 || len(st.bodies) != 0 {
				busy[url] = st.inflight
			}
		}
		f.g.mu.Unlock()
		if len(busy) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight counts never returned to 0: %v", busy)
		}
	}
}

func (f *spillFleet) spills() int64 { return f.g.Snapshot(context.Background(), false).Spills }

// TestSpillToIdleReplica: the owner's one worker is busy, so a second
// run owned by it goes to the idle replica, and the trace's attempt span
// names the owner it bypassed.
func TestSpillToIdleReplica(t *testing.T) {
	f := newSpillFleet(t, 2, "1")
	f.learn(t)
	first := f.hold(t, 0, f.body(t, 0, 0))
	id := xtrace.NewTraceID()
	second := f.send(context.Background(), "/run", f.body(t, 0, 1), http.Header{xtrace.TraceHeader: {string(id)}})
	f.replicas[1].waitArrival(t)
	f.finish(t, 1, second)
	f.finish(t, 0, first)
	if n := f.spills(); n != 1 {
		t.Errorf("spills = %d, want 1", n)
	}
	spans, _ := committedTrace(f.g.traces, id, "proxy")
	var attempts int
	for _, s := range spans {
		if s.Name == "gate.attempt" {
			attempts++
			if s.Attrs["spill"] != f.urls[0] || s.Attrs["replica"] != f.urls[1] {
				t.Errorf("attempt attrs = %v, want spill=%s replica=%s", s.Attrs, f.urls[0], f.urls[1])
			}
		}
	}
	if attempts != 1 {
		t.Errorf("%d attempt spans, want 1", attempts)
	}
	f.settled(t)
}

// TestOwnerServesWhenFree: with a worker free on the owner nothing moves.
func TestOwnerServesWhenFree(t *testing.T) {
	f := newSpillFleet(t, 2, "1")
	f.learn(t)
	held := f.hold(t, 1, f.body(t, 1, 0)) // the other replica is busy, not the owner
	run := f.hold(t, 0, f.body(t, 0, 0))
	f.finish(t, 0, run)
	f.finish(t, 1, held)
	if n := f.spills(); n != 0 {
		t.Errorf("spills = %d, want 0", n)
	}
	f.settled(t)
}

// TestOwnerServesWhenAllSaturated: no replica has a free worker, so the
// run queues on its owner as it always did.
func TestOwnerServesWhenAllSaturated(t *testing.T) {
	f := newSpillFleet(t, 2, "1")
	f.learn(t)
	a := f.hold(t, 0, f.body(t, 0, 0))
	b := f.hold(t, 1, f.body(t, 1, 0))
	run := f.hold(t, 0, f.body(t, 0, 1))
	f.finish(t, 0, a, run)
	f.finish(t, 1, b)
	if n := f.spills(); n != 0 {
		t.Errorf("spills = %d, want 0", n)
	}
	f.settled(t)
}

// TestOwnerServesWhenCapacityUnknown: replicas that do not advertise a
// worker count are routed by the ring alone.
func TestOwnerServesWhenCapacityUnknown(t *testing.T) {
	f := newSpillFleet(t, 2, "")
	f.learn(t)
	a := f.hold(t, 0, f.body(t, 0, 0))
	run := f.hold(t, 0, f.body(t, 0, 1))
	f.finish(t, 0, a, run)
	if n := f.spills(); n != 0 {
		t.Errorf("spills = %d, want 0", n)
	}
	f.settled(t)
}

// TestCompileNeverSpills: a /compile stays on its saturated owner.
func TestCompileNeverSpills(t *testing.T) {
	f := newSpillFleet(t, 2, "1")
	f.learn(t)
	a := f.hold(t, 0, f.body(t, 0, 0))
	compile := f.send(context.Background(), "/compile", f.body(t, 0, 1), nil)
	if path := f.replicas[0].waitArrival(t); path != "/compile" {
		t.Fatalf("owner received %s, want /compile", path)
	}
	f.finish(t, 0, a, compile)
	if n := f.spills(); n != 0 {
		t.Errorf("spills = %d, want 0", n)
	}
	f.settled(t)
}

// TestIdenticalBodyStaysWithItsReplica: a body identical to one in
// flight goes where that one is — onto a saturated owner, and onto a
// spill replica even after the owner has become free — so the replica's
// singleflight can coalesce them.
func TestIdenticalBodyStaysWithItsReplica(t *testing.T) {
	f := newSpillFleet(t, 2, "1")
	f.learn(t)
	x := f.body(t, 0, 0)
	first := f.hold(t, 0, x)
	twin := f.hold(t, 0, x) // the owner is saturated, replica 1 idle
	f.finish(t, 0, first, twin)
	if n := f.spills(); n != 0 {
		t.Errorf("spills = %d after twins on the owner, want 0", n)
	}

	y := f.body(t, 0, 1)
	blocker := f.hold(t, 0, x)
	spilled := f.hold(t, 1, y) // spills past the saturated owner
	f.finish(t, 0, blocker)    // the owner is free again
	twin = f.hold(t, 1, y)     // follows its twin to the spill replica
	f.finish(t, 1, spilled, twin)
	if n := f.spills(); n != 2 {
		t.Errorf("spills = %d, want 2", n)
	}
	f.settled(t)
}

// TestInFlightCountsSettle: a transport-error failover and a client that
// hangs up both leave the counts at zero, and a client hanging up does
// not mark the replica it was waiting on dead.
func TestInFlightCountsSettle(t *testing.T) {
	f := newSpillFleet(t, 2, "1")
	f.learn(t)

	f.replicas[0].Close()
	failover := f.send(context.Background(), "/run", f.body(t, 0, 0), nil)
	f.replicas[1].waitArrival(t)
	f.finish(t, 1, failover)
	f.settled(t)
	if f.g.ring.Alive(f.urls[0]) {
		t.Error("closed replica still on the ring after a transport error")
	}

	ctx, cancel := context.WithCancel(context.Background())
	gone := f.send(ctx, "/run", f.body(t, 1, 0), nil)
	f.replicas[1].waitArrival(t)
	cancel()
	if a := <-gone; a.err == nil {
		t.Errorf("cancelled request answered: %+v", a)
	}
	f.settled(t)
	if !f.g.ring.Alive(f.urls[1]) {
		t.Error("a client hanging up marked its replica dead")
	}
}

// holdPoint sits in front of a real replica. It holds the next /run
// once holdRun is set, and every peer-marked request, until the test
// releases it, so a test decides which request holds a worker when.
type holdPoint struct {
	lateHandler
	holdRun atomic.Bool
	arrived chan string   // the path of each held request, on arrival
	release chan struct{} // one value lets one held request through
	stop    chan struct{} // closed at cleanup: every held request goes through
}

func (h *holdPoint) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(fleet.PeerHeader) != "" || (r.URL.Path == "/run" && h.holdRun.CompareAndSwap(true, false)) {
		h.arrived <- r.URL.Path
		select {
		case <-h.release:
		case <-h.stop:
		}
	}
	h.lateHandler.ServeHTTP(w, r)
}

// wait fails the test unless a request is held at h within a few seconds,
// and returns its path.
func (h *holdPoint) wait(t *testing.T) string {
	t.Helper()
	select {
	case path := <-h.arrived:
		return path
	case <-time.After(5 * time.Second):
		t.Fatal("no request held")
		return ""
	}
}

// TestSpilledColdRunsDoNotWaitOnEachOther: two 1-worker replicas each
// hold their only worker for a cold /run spilled from the other, and each
// run's peer fetch reaches the other replica while that worker is taken.
// A peer lookup needs no worker, so both fetches are answered at once and
// both runs compile locally; neither waits out the peer fetch timeout.
func TestSpilledColdRunsDoNotWaitOnEachOther(t *testing.T) {
	f := &spillFleet{}
	var holds []*holdPoint
	var svcs []*service.Service
	for range 2 {
		// Buffered beyond the three requests a replica holds in this
		// test, so neither the handlers nor the test block on them.
		h := &holdPoint{arrived: make(chan string, 8), release: make(chan struct{}, 8), stop: make(chan struct{})}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		holds = append(holds, h)
		f.urls = append(f.urls, ts.URL)
	}
	for i, u := range f.urls {
		svc, err := service.New(service.Config{Workers: 1, Self: u, Peers: f.urls})
		if err != nil {
			t.Fatal(err)
		}
		holds[i].set(svc.Handler())
		svcs = append(svcs, svc)
	}
	// Registered after the servers, so it runs first: a test that fails
	// with requests still held lets them finish.
	t.Cleanup(func() {
		for _, h := range holds {
			close(h.stop)
		}
	})
	g, err := New(Config{Replicas: f.urls})
	if err != nil {
		t.Fatal(err)
	}
	f.g = g
	f.front = httptest.NewServer(g.Handler())
	t.Cleanup(f.front.Close)
	ctx := context.Background()
	for i := range f.urls {
		if a := <-f.send(ctx, "/compile", f.body(t, i, 1000), nil); a.err != nil || a.status != http.StatusOK {
			t.Fatalf("learning replica %d: %+v", i, a)
		}
	}
	answered := func(name string, ch <-chan answer, replica string, since time.Time) {
		t.Helper()
		select {
		case a := <-ch:
			if a.err != nil || a.status != http.StatusOK || a.replica != replica {
				t.Fatalf("%s: %+v, want 200 from %s", name, a, replica)
			}
			if d := time.Since(since); d >= time.Second {
				t.Errorf("%s took %v after its release, want under 1s", name, d)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: no answer", name)
		}
	}

	// p holds replica 1 at the gate's count, so q, owned by replica 1,
	// spills to replica 0 and its peer fetch is held at replica 1.
	holds[1].holdRun.Store(true)
	p := f.send(ctx, "/run", f.body(t, 1, 0), nil)
	holds[1].wait(t)
	q := f.send(ctx, "/run", f.body(t, 1, 1), nil)
	if path := holds[1].wait(t); path != "/compile" {
		t.Fatalf("replica 1 held %s, want q's peer /compile", path)
	}
	released := time.Now()
	holds[1].release <- struct{}{}
	answered("p", p, f.urls[1], released)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		g.mu.Lock()
		free := g.replicas[f.urls[1]].inflight == 0
		g.mu.Unlock()
		if free {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica 1 still counted busy after p answered")
		}
	}
	// r, owned by replica 0, spills past q to replica 1, whose worker it
	// takes; its peer fetch is held at replica 0, whose worker q holds.
	r := f.send(ctx, "/run", f.body(t, 0, 0), nil)
	if path := holds[0].wait(t); path != "/compile" {
		t.Fatalf("replica 0 held %s, want r's peer /compile", path)
	}
	released = time.Now()
	holds[0].release <- struct{}{}
	holds[1].release <- struct{}{}
	answered("q", q, f.urls[0], released)
	answered("r", r, f.urls[1], released)
	if n := f.spills(); n != 2 {
		t.Errorf("spills = %d, want 2", n)
	}
	for i, svc := range svcs {
		st := svc.Stats()
		if st.Peer.Fetches != 1 || st.Peer.Errors != 1 || st.Errors != 0 {
			t.Errorf("replica %d: peer fetches/errors = %d/%d, errors = %d; want 1/1, 0",
				i, st.Peer.Fetches, st.Peer.Errors, st.Errors)
		}
	}
}
