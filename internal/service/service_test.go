package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"queuemachine/internal/compile"
	"queuemachine/internal/fleet"
	"queuemachine/internal/sim"
)

// sumSquares computes 1²+…+10² = 385 in a while loop spliced across
// dynamic contexts; it runs on any machine size.
const sumSquares = `var v[1], sum, k:
seq
  sum := 0
  k := 1
  while k <= 10
    seq
      sum := sum + (k * k)
      k := k + 1
  v[0] := sum
`

// spin never terminates; only a deadline can stop it.
const spin = `var v[1], k:
seq
  k := 0
  while k >= 0
    k := k + 1
`

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

// post sends body as JSON and decodes the response into out (when out is
// non-nil), returning the status code and raw body.
func post(t *testing.T, url string, body, out any) (int, []byte) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode response %q: %v", raw, err)
		}
	}
	return resp.StatusCode, raw
}

func get(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// errorBody asserts the structured {"error": ...} shape.
func errorBody(t *testing.T, raw []byte) string {
	t.Helper()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
		t.Fatalf("response %q is not a structured error", raw)
	}
	return e.Error
}

func TestCompileEndpointCaches(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var first, second compileResponse
	if code, raw := post(t, ts.URL+"/compile", compileRequest{Source: sumSquares}, &first); code != 200 {
		t.Fatalf("first compile: %d %s", code, raw)
	}
	if code, raw := post(t, ts.URL+"/compile", compileRequest{Source: sumSquares}, &second); code != 200 {
		t.Fatalf("second compile: %d %s", code, raw)
	}
	if first.Cached || !second.Cached {
		t.Errorf("cached flags = %t, %t; want false, true", first.Cached, second.Cached)
	}
	if first.Fingerprint != second.Fingerprint || len(first.Fingerprint) != 64 {
		t.Errorf("fingerprints %q vs %q", first.Fingerprint, second.Fingerprint)
	}
	if first.Object == nil || first.Graphs == 0 {
		t.Errorf("compile response missing object: %+v", first)
	}
	// Different options must compile (and cache) separately.
	var opt compileResponse
	req := compileRequest{Source: sumSquares, Options: compileOptions{NoConstFold: true}}
	if code, raw := post(t, ts.URL+"/compile", req, &opt); code != 200 {
		t.Fatalf("options compile: %d %s", code, raw)
	}
	if opt.Cached || opt.Fingerprint == first.Fingerprint {
		t.Error("option change did not miss the cache")
	}
}

func TestRunEndToEnd(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	art, err := compile.Compile(sumSquares, compile.Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for i, pes := range []int{1, 4} {
		direct, err := sim.Run(art.Object, pes, sim.DefaultParams())
		if err != nil {
			t.Fatalf("sim.Run(%d PEs): %v", pes, err)
		}
		var got runResponse
		req := runRequest{Source: sumSquares, PEs: pes, DumpData: true}
		if code, raw := post(t, ts.URL+"/run", req, &got); code != 200 {
			t.Fatalf("run %d PEs: %d %s", pes, code, raw)
		}
		if got.Stats.Cycles != direct.Cycles || got.Stats.Instructions != direct.Instructions {
			t.Errorf("%d PEs: served (%d cycles, %d instr) != direct (%d, %d)",
				pes, got.Stats.Cycles, got.Stats.Instructions, direct.Cycles, direct.Instructions)
		}
		base, err := art.VectorBase("v")
		if err != nil {
			t.Fatalf("VectorBase: %v", err)
		}
		if v := got.Stats.Data[base/4]; v != 385 {
			t.Errorf("%d PEs: v[0] = %d, want 385", pes, v)
		}
		if got.Cached != (i > 0) {
			t.Errorf("%d PEs: cached = %t", pes, got.Cached)
		}
	}
	// First run misses and compiles; the second is served from the cache.
	if st := svc.cache.stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v", st)
	}
}

func TestRunSuppliedObject(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var comp compileResponse
	if code, raw := post(t, ts.URL+"/compile", compileRequest{Source: sumSquares}, &comp); code != 200 {
		t.Fatalf("compile: %d %s", code, raw)
	}
	direct, err := sim.Run(comp.Object, 2, sim.DefaultParams())
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	var got runResponse
	if code, raw := post(t, ts.URL+"/run", runRequest{Object: comp.Object, PEs: 2}, &got); code != 200 {
		t.Fatalf("run object: %d %s", code, raw)
	}
	if got.Stats.Cycles != direct.Cycles {
		t.Errorf("object run cycles = %d, want %d", got.Stats.Cycles, direct.Cycles)
	}
	if got.Fingerprint != "" || got.Cached {
		t.Errorf("object run should not report compile caching: %+v", got)
	}
}

func TestRunParamsOverlay(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// An absurdly low instruction watchdog must trip — proof the overlay
	// reached the simulator while unnamed fields kept their defaults.
	req := runRequest{Source: sumSquares, Params: json.RawMessage(`{"MaxInstructions": 5}`)}
	code, raw := post(t, ts.URL+"/run", req, nil)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("watchdog run: %d %s", code, raw)
	}
	if msg := errorBody(t, raw); !strings.Contains(msg, "instructions") {
		t.Errorf("error = %q", msg)
	}
}

func TestRunDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	done := make(chan struct{})
	var code int
	var raw []byte
	go func() {
		defer close(done)
		code, raw = post(t, ts.URL+"/run", runRequest{Source: spin, TimeoutMS: 1}, nil)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadline request hung")
	}
	if code != http.StatusGatewayTimeout {
		t.Fatalf("deadline run: %d %s", code, raw)
	}
	if msg := errorBody(t, raw); !strings.Contains(msg, "deadline") {
		t.Errorf("error = %q", msg)
	}
}

func TestBackpressure(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	block := make(chan struct{})
	started := make(chan struct{})
	if err := svc.pool.submit(func() { close(started); <-block }); err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	<-started
	if err := svc.pool.submit(func() {}); err != nil {
		t.Fatalf("fill queue: %v", err)
	}
	resp, err := http.Post(ts.URL+"/run", "application/json",
		strings.NewReader(`{"source": "var v[1]:\nseq\n  v[0] := 1\n"}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded run: %d %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	errorBody(t, raw)
	close(block)
	// With the worker free again the same request must succeed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, _ := post(t, ts.URL+"/run", runRequest{Source: "var v[1]:\nseq\n  v[0] := 1\n"}, nil)
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("service never recovered: last status %d", code)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := svc.Stats(); st.Rejected == 0 {
		t.Errorf("rejected counter = %d", st.Rejected)
	}
}

func TestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1024})
	req := compileRequest{Source: strings.Repeat("-- padding\n", 200)}
	code, raw := post(t, ts.URL+"/compile", req, nil)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %s", code, raw)
	}
	errorBody(t, raw)
}

func TestCompileFailureIsStructured(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, url := range []string{"/compile", "/run"} {
		code, raw := post(t, ts.URL+url, compileRequest{Source: "seq\n  undeclared := 1\n"}, nil)
		if code != http.StatusUnprocessableEntity {
			t.Errorf("%s bad source: %d %s", url, code, raw)
			continue
		}
		errorBody(t, raw)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		url  string
		body string
	}{
		{"/compile", `{}`},                                  // missing source
		{"/compile", `{"sauce": "typo"}`},                   // unknown field
		{"/run", `{}`},                                      // neither source nor object
		{"/run", `{"source": "x", "object": {}}`},           // both
		{"/run", `{"source": "x", "pes": -3}`},              // bad machine size
		{"/run", `{"source": "x", "params": {"Bogus": 1}}`}, // unknown param
		{"/run", `not json`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("POST %s: %v", tc.url, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d %s", tc.url, tc.body, resp.StatusCode, raw)
			continue
		}
		errorBody(t, raw)
	}
}

// TestRunHostParallel: the host-parallel engine and its counters are gone.
// A client that still sends host_parallel gets a 400 rather than a silently
// sequential run, a plain run's stats carry no host-worker block, and
// neither /statsz nor /metrics carries a hostpar key or series.
func TestRunHostParallel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, raw := post(t, ts.URL+"/run",
		map[string]any{"source": parSquares, "pes": 4, "host_parallel": 2}, nil); code != http.StatusBadRequest {
		t.Fatalf("host_parallel run: status %d, want 400 (%s)", code, raw)
	}

	code, raw := post(t, ts.URL+"/run", map[string]any{"source": parSquares, "pes": 4}, nil)
	if code != http.StatusOK {
		t.Fatalf("plain run: %d %s", code, raw)
	}
	if strings.Contains(strings.ToLower(string(raw)), "host_workers") {
		t.Errorf("/run still reports host_workers:\n%s", raw)
	}
	for _, path := range []string{"/statsz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(strings.ToLower(string(body)), "hostpar") {
			t.Errorf("%s still reports hostpar:\n%s", path, body)
		}
	}
}

// TestRunHostParallelRejected: the retired host-parallel knob is a client
// error on the dedicated field and through the params overlay alike,
// answered with a structured 400 that names the field.
func TestRunHostParallelRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		body  map[string]any
		field string
	}{
		{map[string]any{"source": parSquares, "pes": 4, "host_parallel": 2}, "host_parallel"},
		{map[string]any{"source": parSquares, "pes": 4, "params": map[string]any{"HostParallel": 2}}, "HostParallel"},
	} {
		code, raw := post(t, ts.URL+"/run", tc.body, nil)
		if code != http.StatusBadRequest {
			t.Errorf("%v: status %d, want 400 (%s)", tc.body, code, raw)
			continue
		}
		if msg := errorBody(t, raw); !strings.Contains(msg, tc.field) {
			t.Errorf("error %q does not name %s", msg, tc.field)
		}
	}
}

func TestStatsz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})
	post(t, ts.URL+"/compile", compileRequest{Source: sumSquares}, nil)
	post(t, ts.URL+"/run", runRequest{Source: sumSquares}, nil)
	var st ServiceStats
	if code := get(t, ts.URL+"/statsz", &st); code != 200 {
		t.Fatalf("statsz: %d", code)
	}
	if st.Compiles != 1 || st.Runs != 1 || st.Workers != 3 {
		t.Errorf("statsz = %+v", st)
	}
	if st.Cache.Entries != 1 || st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v", st.Cache)
	}
}

func TestGracefulShutdown(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	if code := get(t, ts.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	block := make(chan struct{})
	started := make(chan struct{})
	if err := svc.pool.submit(func() { close(started); <-block }); err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-started
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- svc.Shutdown(ctx)
	}()
	// Draining flips synchronously at the top of Shutdown; poll briefly
	// for the goroutine to get there.
	deadline := time.Now().Add(5 * time.Second)
	for get(t, ts.URL+"/healthz", nil) != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
	if code, _ := post(t, ts.URL+"/run", runRequest{Source: sumSquares}, nil); code != http.StatusServiceUnavailable {
		t.Errorf("run while draining: %d", code)
	}
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v before in-flight job finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(block) // let the in-flight job complete
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown never returned")
	}
	if err := svc.pool.submit(func() {}); err != errClosed {
		t.Errorf("submit after shutdown = %v, want errClosed", err)
	}
}

func TestConcurrentRuns(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	const n = 16
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			var got runResponse
			req := runRequest{Source: sumSquares, PEs: 1 + i%4}
			code, raw := post(t, ts.URL+"/run", req, &got)
			if code != 200 {
				errs <- fmt.Errorf("run %d: %d %s", i, code, raw)
				return
			}
			if got.Stats.Cycles <= 0 {
				errs <- fmt.Errorf("run %d: zero cycles", i)
				return
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if st := svc.cache.stats(); st.Entries != 1 {
		t.Errorf("cache entries = %d, want 1 (all runs share one artifact)", st.Entries)
	}
}

// TestRunHitsShareOneLoadedProgram: concurrent /run hits on one
// fingerprint, profiled ones included, all simulate the one program the
// memory tier loaded, and none of them decodes it again. After warm-up
// the cached program's object is swapped for an undecodable copy: a hit
// that went back through pe.LoadProgram would fail with 422, while the
// decoded streams the runs actually execute are untouched.
func TestRunHitsShareOneLoadedProgram(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	if code, raw := post(t, ts.URL+"/compile", compileRequest{Source: sumSquares}, nil); code != http.StatusOK {
		t.Fatalf("warm-up compile: %d %s", code, raw)
	}
	fp := compile.Fingerprint(sumSquares, compile.Options{})
	prog, ok := svc.cache.peek(fp)
	if !ok {
		t.Fatal("compiled program not cached")
	}
	obj := prog.Obj
	prog.Obj = undecodable(t, obj)
	want := map[int]int64{}
	for pes := 1; pes <= 4; pes++ {
		res, err := sim.Run(obj, pes, sim.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		want[pes] = res.Cycles
	}

	const n = 24
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			var got runResponse
			req := runRequest{Source: sumSquares, PEs: 1 + i%4, Profile: i%3 == 0}
			code, raw := post(t, ts.URL+"/run", req, &got)
			switch {
			case code != http.StatusOK:
				errs <- fmt.Errorf("run %d: %d %s", i, code, raw)
			case got.Stats.Cycles != want[req.PEs]:
				errs <- fmt.Errorf("run %d on %d PEs: %d cycles, want %d", i, req.PEs, got.Stats.Cycles, want[req.PEs])
			case req.Profile && got.Stats.Profile == nil:
				errs <- fmt.Errorf("run %d: profile missing", i)
			default:
				errs <- nil
			}
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if again, _ := svc.cache.peek(fp); again != prog {
		t.Error("the cached program instance changed under hits")
	}
	if st := svc.cache.stats(); st.Misses != 1 || st.Entries != 1 {
		t.Errorf("cache stats = %+v, want the warm-up's one miss and one entry", st)
	}
}

// TestWorkersHeader: every response — answers, errors and probes alike —
// advertises the replica's worker count, which qgate's load-aware routing
// reads.
func TestWorkersHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})
	for _, c := range []struct{ method, path, body string }{
		{"GET", "/healthz", ""},
		{"POST", "/run", `{"source": "var v[1]:\nseq\n  v[0] := 1\n"}`},
		{"POST", "/compile", "not json"},
		{"GET", "/nowhere", ""},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get(fleet.WorkersHeader); got != "3" {
			t.Errorf("%s %s (status %d): %s = %q, want \"3\"", c.method, c.path, resp.StatusCode, fleet.WorkersHeader, got)
		}
	}
}
