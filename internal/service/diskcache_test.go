package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"queuemachine/internal/compile"
	"queuemachine/internal/isa"
	"queuemachine/internal/pe"
	"queuemachine/internal/workloads"
)

// swappableServer is an httptest server whose handler can be installed
// after construction — needed because a fleet service's peer list must
// contain its own URL, which only exists once the server is listening.
type swappableServer struct {
	ts *httptest.Server
	h  atomic.Value // http.Handler
}

func newSwappableServer(t *testing.T) *swappableServer {
	t.Helper()
	s := &swappableServer{}
	s.h.Store(http.Handler(http.NotFoundHandler()))
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.h.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(s.ts.Close)
	return s
}

func (s *swappableServer) URL() string        { return s.ts.URL }
func (s *swappableServer) Set(h http.Handler) { s.h.Store(h) }

func TestDiskCacheRoundTrip(t *testing.T) {
	d, err := openDiskCache(t.TempDir())
	if err != nil {
		t.Fatalf("openDiskCache: %v", err)
	}
	prog := compileFor(t, 7)
	const fp = "abc123"
	if _, ok := d.get(fp); ok {
		t.Fatal("hit on empty disk cache")
	}
	d.put(fp, prog.Obj)
	got, ok := d.get(fp)
	if !ok {
		t.Fatal("program not readable back")
	}
	want, _ := json.Marshal(prog.Obj)
	have, _ := json.Marshal(got.Obj)
	if string(want) != string(have) {
		t.Error("object changed through disk round trip")
	}
	st := d.stats()
	if st.Writes != 1 || st.Hits != 1 || st.Errors != 0 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	// A program with streams long enough that JSON decoding leaves slack.
	art, err := compile.Compile(workloads.MatMul(3).Source, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.put("matmul", art.Object)
	big, ok := d.get("matmul")
	if !ok {
		t.Fatal("matmul not readable back")
	}
	exactCode(t, big.Obj)
}

func TestDiskCacheRejectsCorruptAndStale(t *testing.T) {
	d, err := openDiskCache(t.TempDir())
	if err != nil {
		t.Fatalf("openDiskCache: %v", err)
	}
	obj := compileFor(t, 1).Obj

	// Corrupt JSON fails once, then the file is gone.
	if err := os.WriteFile(d.path("bad"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.get("bad"); ok {
		t.Error("corrupt file served as artifact")
	}
	if _, err := os.Stat(d.path("bad")); !os.IsNotExist(err) {
		t.Error("corrupt file not removed")
	}

	// A stale toolchain version is rejected even in the right directory.
	blob, _ := json.Marshal(diskArtifact{
		Toolchain:   "queuemachine/old-toolchain",
		Fingerprint: "stale",
		Object:      obj,
	})
	if err := os.WriteFile(d.path("stale"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.get("stale"); ok {
		t.Error("stale-toolchain artifact served")
	}

	// A file whose embedded fingerprint disagrees with its name (copied
	// or renamed by hand) is rejected too.
	blob, _ = json.Marshal(diskArtifact{
		Toolchain:   compile.ToolchainHash(),
		Fingerprint: "other",
		Object:      obj,
	})
	if err := os.WriteFile(d.path("mismatch"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.get("mismatch"); ok {
		t.Error("fingerprint-mismatched artifact served")
	}
	if st := d.stats(); st.Errors != 3 {
		t.Errorf("errors = %d, want 3", st.Errors)
	}
}

// exactCode checks that every graph's code slice holds no spare capacity:
// a program read back from JSON keeps only its words.
func exactCode(t *testing.T, obj *isa.Object) {
	t.Helper()
	for _, g := range obj.Graphs {
		if cap(g.Code) != len(g.Code) {
			t.Errorf("graph %q: code cap %d, len %d", g.Name, cap(g.Code), len(g.Code))
		}
	}
}

// undecodable returns a copy of obj whose entry graph ends in a word
// with no opcode: the object still marshals and parses, but
// pe.LoadProgram refuses it. obj itself is not modified.
func undecodable(t *testing.T, obj *isa.Object) *isa.Object {
	t.Helper()
	op := isa.Opcode(1<<6 - 1)
	for ; op > 0; op-- {
		if _, ok := isa.Lookup(op); !ok {
			break
		}
	}
	if _, ok := isa.Lookup(op); ok {
		t.Fatal("every opcode is assigned")
	}
	bad := *obj
	bad.Graphs = append([]isa.GraphCode(nil), obj.Graphs...)
	g := &bad.Graphs[bad.Entry]
	g.Code = append(append([]uint32(nil), g.Code...), uint32(op)<<26)
	if _, err := pe.LoadProgram(&bad); err == nil {
		t.Fatal("undecodable object loads")
	}
	return &bad
}

// TestDiskCacheRejectsUndecodable: a file that parses and carries the
// right toolchain and fingerprint, but whose object fails
// pe.LoadProgram, is a miss, counts as an error and is removed.
func TestDiskCacheRejectsUndecodable(t *testing.T) {
	d, err := openDiskCache(t.TempDir())
	if err != nil {
		t.Fatalf("openDiskCache: %v", err)
	}
	const fp = "undecodable"
	d.put(fp, undecodable(t, compileFor(t, 1).Obj))
	if _, err := os.Stat(d.path(fp)); err != nil {
		t.Fatalf("file not written: %v", err)
	}
	if _, ok := d.get(fp); ok {
		t.Error("undecodable object served from disk")
	}
	if _, err := os.Stat(d.path(fp)); !os.IsNotExist(err) {
		t.Error("undecodable file not removed")
	}
	if st := d.stats(); st.Hits != 0 || st.Errors != 1 || st.Entries != 0 {
		t.Errorf("stats = %+v, want 0 hits, 1 error, 0 entries", st)
	}
}

func TestDiskCacheSweepsTemporaries(t *testing.T) {
	root := t.TempDir()
	d, err := openDiskCache(root)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crashed writer, then reopen.
	tmp := filepath.Join(d.dir, "tmp-12345")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openDiskCache(root); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("leftover temporary not swept at open")
	}
}

// TestRestartWarmsFromDisk is the end-to-end restart story: a fresh
// service instance pointed at the same cache directory serves a compile
// from disk — no recompilation — and reports it as a "disk" cache state.
func TestRestartWarmsFromDisk(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{CacheDir: dir})
	var first compileResponse
	status, raw := post(t, ts1.URL+"/compile", map[string]any{"source": sumSquares}, &first)
	if status != http.StatusOK {
		t.Fatalf("compile: status %d: %s", status, raw)
	}
	if first.CacheState != cacheStateMiss {
		t.Fatalf("first compile cache = %q, want %q", first.CacheState, cacheStateMiss)
	}

	// "Restart": a brand-new service over the same directory.
	svc2, ts2 := newTestServer(t, Config{CacheDir: dir})
	var second compileResponse
	status, raw = post(t, ts2.URL+"/compile", map[string]any{"source": sumSquares}, &second)
	if status != http.StatusOK {
		t.Fatalf("compile after restart: status %d: %s", status, raw)
	}
	if second.CacheState != cacheStateDisk {
		t.Errorf("post-restart compile cache = %q, want %q", second.CacheState, cacheStateDisk)
	}
	if !second.Cached {
		t.Error("post-restart compile not reported as cached")
	}
	if first.Fingerprint != second.Fingerprint {
		t.Error("fingerprint changed across restart")
	}
	wantObj, _ := json.Marshal(first.Object)
	gotObj, _ := json.Marshal(second.Object)
	if string(wantObj) != string(gotObj) {
		t.Error("object changed across restart")
	}
	// The disk load warmed the memory tier: the next request is a plain
	// memory hit.
	var third compileResponse
	status, _ = post(t, ts2.URL+"/compile", map[string]any{"source": sumSquares}, &third)
	if status != http.StatusOK || third.CacheState != cacheStateHit {
		t.Errorf("third compile = %d/%q, want 200/%q", status, third.CacheState, cacheStateHit)
	}
	if st := svc2.disk.stats(); st.Hits != 1 {
		t.Errorf("disk hits = %d, want 1", st.Hits)
	}
	// Runs warm from disk too: a fresh third instance executes the
	// program without compiling.
	svc3, ts3 := newTestServer(t, Config{CacheDir: dir})
	var run runResponse
	status, raw = post(t, ts3.URL+"/run", map[string]any{"source": sumSquares, "pes": 2}, &run)
	if status != http.StatusOK {
		t.Fatalf("run after restart: status %d: %s", status, raw)
	}
	if run.CacheState != cacheStateDisk {
		t.Errorf("post-restart run cache = %q, want %q", run.CacheState, cacheStateDisk)
	}
	if st := svc3.disk.stats(); st.Hits != 1 {
		t.Errorf("disk hits = %d, want 1", st.Hits)
	}
}

// TestPeerFetchThroughFleet wires two real service instances into a
// two-replica fleet. A program the owner holds in memory reaches the
// non-owner as a peer fetch (cache state "peer"); a cold one costs the
// non-owner one declined lookup and a local compile, and the owner
// compiles nothing for it.
func TestPeerFetchThroughFleet(t *testing.T) {
	// Build both replicas first with placeholder peer lists is not
	// possible — the ring is fixed at construction — so allocate the
	// servers, then the services, then swap handlers in.
	srvA := newSwappableServer(t)
	srvB := newSwappableServer(t)
	peers := []string{srvA.URL(), srvB.URL()}

	svcA, err := New(Config{Workers: 2, Self: srvA.URL(), Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	svcB, err := New(Config{Workers: 2, Self: srvB.URL(), Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	srvA.Set(svcA.Handler())
	srvB.Set(svcB.Handler())

	// Two sources owned by A on the ring (both replicas agree: same
	// member list, same hash).
	warm := peerOwnedSource(t, svcA.ring, srvA.URL(), 0)
	cold := peerOwnedSource(t, svcA.ring, srvA.URL(), 1)

	// Warm the owner, then compile on B: B is not the owner, so it
	// fetches from A's memory.
	var resp compileResponse
	if status, raw := post(t, srvA.URL()+"/compile", map[string]any{"source": warm}, &resp); status != http.StatusOK {
		t.Fatalf("warm compile on A: status %d: %s", status, raw)
	}
	status, raw := post(t, srvB.URL()+"/compile", map[string]any{"source": warm}, &resp)
	if status != http.StatusOK {
		t.Fatalf("compile via B: status %d: %s", status, raw)
	}
	if resp.CacheState != cacheStatePeer {
		t.Errorf("cache state via B = %q, want %q", resp.CacheState, cacheStatePeer)
	}
	if svcB.peerHits.Load() != 1 {
		t.Errorf("B peer hits = %d, want 1", svcB.peerHits.Load())
	}
	// B's copy is cached in memory now: repeating on B is a local hit.
	status, _ = post(t, srvB.URL()+"/compile", map[string]any{"source": warm}, &resp)
	if status != http.StatusOK || resp.CacheState != cacheStateHit {
		t.Errorf("repeat via B = %d/%q, want 200/hit", status, resp.CacheState)
	}

	// A cold program: A declines the lookup and B compiles it itself.
	status, raw = post(t, srvB.URL()+"/compile", map[string]any{"source": cold}, &resp)
	if status != http.StatusOK || resp.CacheState != cacheStateMiss {
		t.Fatalf("cold compile via B = %d/%q: %s, want 200/miss", status, resp.CacheState, raw)
	}
	if svcB.peerFetches.Load() != 2 || svcB.peerErrors.Load() != 1 {
		t.Errorf("B peer fetches/errors = %d/%d, want 2/1", svcB.peerFetches.Load(), svcB.peerErrors.Load())
	}
	if st := svcA.cache.stats(); st.Misses != 1 || st.Entries != 1 {
		t.Errorf("A cache misses/entries = %d/%d, want 1/1 (only its own warm compile)", st.Misses, st.Entries)
	}
	if n := svcA.fails.Load(); n != 0 {
		t.Errorf("A qmd_errors_total = %d, want 0", n)
	}
}

// TestBadPeerObjectFallsBackToLocalCompile: the peer client no longer
// validates what it fetches, so pe.LoadProgram is the only check; an
// owner that answers an undecodable object must cost one peer error and a
// local compile, never a failed request or a poisoned cache entry.
func TestBadPeerObjectFallsBackToLocalCompile(t *testing.T) {
	bad := undecodable(t, compileFor(t, 3).Obj)
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"fingerprint": "x", "object": bad})
	}))
	t.Cleanup(owner.Close)
	self := newSwappableServer(t)
	peers := []string{owner.URL, self.URL()}
	svc, err := New(Config{Workers: 1, Self: self.URL(), Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	self.Set(svc.Handler())
	var src string
	var want int32
	for ; src == ""; want++ {
		if want > 200 {
			t.Fatal("no source owned by the fake owner")
		}
		candidate := fmt.Sprintf("var v[1]:\nseq\n  v[0] := %d\n", want+1)
		if svc.ring.Owner(compile.Fingerprint(candidate, compile.Options{})) == owner.URL {
			src = candidate
		}
	}
	var resp runResponse
	status, raw := post(t, self.URL()+"/run", map[string]any{"source": src, "dump_data": true}, &resp)
	if status != http.StatusOK {
		t.Fatalf("run: status %d: %s", status, raw)
	}
	if resp.CacheState != cacheStateMiss {
		t.Errorf("cache state = %q, want %q (a local compile)", resp.CacheState, cacheStateMiss)
	}
	if got := resp.Stats.Data; len(got) != 1 || got[0] != want {
		t.Errorf("data = %v, want [%d]", got, want)
	}
	if svc.peerFetches.Load() != 1 || svc.peerErrors.Load() != 1 || svc.peerHits.Load() != 0 {
		t.Errorf("peer fetches/errors/hits = %d/%d/%d, want 1/1/0",
			svc.peerFetches.Load(), svc.peerErrors.Load(), svc.peerHits.Load())
	}
}
