package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"queuemachine/internal/compile"
	"queuemachine/internal/service"
	"queuemachine/internal/sim"
	"queuemachine/internal/workloads"
)

// testFleet is a gate in front of n real in-process service replicas.
type testFleet struct {
	gate     *httptest.Server
	replicas []*httptest.Server
	urls     []string
	g        *Gate
}

// newTestFleet starts a fleet whose gate sweeps replica health every
// 100 ms.
func newTestFleet(t *testing.T, n int) *testFleet {
	t.Helper()
	f := newUnsweptFleet(t, n)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	f.g.Start(ctx)
	return f
}

// newUnsweptFleet starts a fleet whose gate never runs its health sweep,
// so every replica stays marked alive and only the gate's own proxying
// can find one dead.
func newUnsweptFleet(t *testing.T, n int) *testFleet {
	t.Helper()
	f := &testFleet{}
	for i := 0; i < n; i++ {
		svc, err := service.New(service.Config{Workers: 2})
		if err != nil {
			t.Fatalf("service.New: %v", err)
		}
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(ts.Close)
		f.replicas = append(f.replicas, ts)
		f.urls = append(f.urls, ts.URL)
	}
	g, err := New(Config{Replicas: f.urls, HealthInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("gate.New: %v", err)
	}
	f.g = g
	f.gate = httptest.NewServer(g.Handler())
	t.Cleanup(f.gate.Close)
	return f
}

// post sends body as JSON to the fleet's gate and returns status, decoded
// body, and the replica that served it.
func (f *testFleet) post(t *testing.T, path string, body any) (int, map[string]any, string) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(f.gate.URL+path, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("unmarshal %q: %v", raw, err)
	}
	return resp.StatusCode, out, resp.Header.Get(ReplicaHeader)
}

// learnCapacity sends distinct compiles through the gate until every
// replica has advertised its worker count, so load-aware routing is on.
func (f *testFleet) learnCapacity(t *testing.T) {
	t.Helper()
	for i := 0; ; i++ {
		known := true
		for _, st := range f.g.replicas {
			known = known && st.workers.Load() > 0
		}
		if known {
			return
		}
		if i > 200 {
			t.Fatal("replicas never advertised their worker counts")
		}
		f.post(t, "/compile", map[string]any{"source": fmt.Sprintf("var v[1]:\nseq\n  v[0] := %d\n", 5000+i)})
	}
}

const testSrc = "var v[1]:\nseq\n  v[0] := 42\n"

func TestGateRouteStability(t *testing.T) {
	f := newTestFleet(t, 3)
	body := map[string]any{"source": testSrc, "pes": 2}
	status, _, first := f.post(t, "/run", body)
	if status != http.StatusOK {
		t.Fatalf("first run: status %d", status)
	}
	if first == "" {
		t.Fatal("no replica header on proxied response")
	}
	for i := 0; i < 5; i++ {
		status, out, replica := f.post(t, "/run", body)
		if status != http.StatusOK {
			t.Fatalf("run %d: status %d", i, status)
		}
		if replica != first {
			t.Fatalf("run %d routed to %s, first went to %s", i, replica, first)
		}
		if out["cached"] != true {
			t.Errorf("repeat run %d not served from cache: %v", i, out["cached"])
		}
	}
}

func TestGateSpreadsDistinctPrograms(t *testing.T) {
	f := newTestFleet(t, 3)
	seen := make(map[string]bool)
	for i := 0; i < 24; i++ {
		src := fmt.Sprintf("var v[1]:\nseq\n  v[0] := %d\n", i)
		status, _, replica := f.post(t, "/compile", map[string]any{"source": src})
		if status != http.StatusOK {
			t.Fatalf("compile %d: status %d", i, status)
		}
		seen[replica] = true
	}
	if len(seen) < 2 {
		t.Errorf("24 distinct programs all routed to one replica: %v", seen)
	}
}

// TestGateBitIdentical runs real workloads through the full gate→replica
// path and checks the simulated statistics and final data segment against
// a direct in-process simulation: the serving tier must be invisible to
// the machine being simulated.
func TestGateBitIdentical(t *testing.T) {
	f := newTestFleet(t, 3)
	cases := []workloads.Workload{
		workloads.MatMul(3),
		workloads.FFT(2),
		workloads.Congruence(3),
		workloads.BinaryRecursiveSum(16),
	}
	for _, wl := range cases {
		for _, pes := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/pes=%d", wl.Name, pes), func(t *testing.T) {
				art, err := compile.Compile(wl.Source, compile.Options{})
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				params := sim.DefaultParams()
				params.KeepData = true
				want, err := sim.Run(art.Object, pes, params)
				if err != nil {
					t.Fatalf("direct sim: %v", err)
				}

				status, out, _ := f.post(t, "/run", map[string]any{
					"source": wl.Source, "pes": pes, "dump_data": true,
				})
				if status != http.StatusOK {
					t.Fatalf("gate run: status %d: %v", status, out)
				}
				stats := out["stats"].(map[string]any)
				if got := int64(stats["cycles"].(float64)); got != want.Cycles {
					t.Errorf("cycles = %d via gate, %d direct", got, want.Cycles)
				}
				if got := int64(stats["instructions"].(float64)); got != want.Instructions {
					t.Errorf("instructions = %d via gate, %d direct", got, want.Instructions)
				}
				data := stats["data"].([]any)
				if len(data) != len(want.Data) {
					t.Fatalf("data segment %d words via gate, %d direct", len(data), len(want.Data))
				}
				got := make([]int32, len(data))
				for i, v := range data {
					got[i] = int32(v.(float64))
				}
				for i := range got {
					if got[i] != want.Data[i] {
						t.Fatalf("data[%d] = %d via gate, %d direct", i, got[i], want.Data[i])
					}
				}
				if err := wl.Check(art, got); err != nil {
					t.Errorf("workload check via gate: %v", err)
				}
			})
		}
	}
}

// TestGateFailover: a request whose owner has died fails over to another
// replica and is counted. The fleet runs no health sweep, which could
// otherwise mark the closed replica dead first and route the request
// straight to a live one, with no failover to count.
func TestGateFailover(t *testing.T) {
	f := newUnsweptFleet(t, 3)
	// Find a program owned by replica 0, then kill that replica: the
	// request must transparently fail over to another.
	var body map[string]any
	var owner string
	for i := 0; ; i++ {
		if i > 200 {
			t.Fatal("no program routed to a replica we can kill")
		}
		candidate := map[string]any{"source": fmt.Sprintf("var v[1]:\nseq\n  v[0] := %d\n", 1000+i)}
		_, _, replica := f.post(t, "/compile", candidate)
		if replica == f.urls[0] {
			body, owner = candidate, replica
			break
		}
	}
	f.replicas[0].Close()
	status, _, replica := f.post(t, "/compile", body)
	if status != http.StatusOK {
		t.Fatalf("failover compile: status %d", status)
	}
	if replica == owner || replica == "" {
		t.Fatalf("request still routed to dead replica %q", replica)
	}
	st := f.g.Snapshot(context.Background(), false)
	if st.Failovers == 0 {
		t.Error("failover not counted")
	}
	if st.Unrouted != 0 {
		t.Errorf("unrouted = %d, want 0", st.Unrouted)
	}
}

// TestGateCoalescesThroughProxy drives identical concurrent runs through
// the gate; because they shard to one replica, that replica's
// singleflight must collapse them. The gate knows every replica's worker
// count first, so the burst outnumbers the owner's workers and only the
// rule that keeps a body with its in-flight twin holds it together.
func TestGateCoalescesThroughProxy(t *testing.T) {
	f := newTestFleet(t, 3)
	f.learnCapacity(t)
	before := f.replicaMisses(t)
	body := map[string]any{"source": workloads.MatMul(3).Source, "pes": 4}
	const n = 6
	var wg sync.WaitGroup
	replicas := make([]string, n)
	statuses := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			statuses[i], _, replicas[i] = f.post(t, "/run", body)
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("run %d: status %d", i, statuses[i])
		}
		if replicas[i] != replicas[0] {
			t.Fatalf("identical runs split across replicas: %s vs %s", replicas[i], replicas[0])
		}
	}
	// The owning replica saw n concurrent identical runs; coalesced +
	// cache hits + the one execution must account for all of them.
	after := f.replicaMisses(t)
	for url := range after {
		if got := after[url] - before[url]; url == replicas[0] && got != 1 {
			t.Errorf("cache misses on the serving replica = %d, want exactly 1 compile", got)
		} else if url != replicas[0] && got != 0 {
			t.Errorf("cache misses on %s = %d, want 0", url, got)
		}
	}
}

// replicaMisses reads every replica's artifact-cache miss count through
// the gate's /statsz.
func (f *testFleet) replicaMisses(t *testing.T) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for url, raw := range f.g.Snapshot(context.Background(), true).ReplicaStatsz {
		var rs struct {
			Cache struct {
				Misses int64 `json:"misses"`
			} `json:"cache"`
		}
		if err := json.Unmarshal(raw, &rs); err != nil {
			t.Fatalf("replica statsz: %v", err)
		}
		out[url] = rs.Cache.Misses
	}
	if len(out) != len(f.urls) {
		t.Fatalf("statsz from %d of %d replicas", len(out), len(f.urls))
	}
	return out
}

func TestGateHealthz(t *testing.T) {
	f := newTestFleet(t, 2)
	resp, err := http.Get(f.gate.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d with live replicas", resp.StatusCode)
	}
	for _, r := range f.replicas {
		r.Close()
	}
	// The next sweep marks everything dead.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(f.gate.URL + "/healthz")
		if err != nil {
			t.Fatalf("healthz: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("gate never noticed all replicas died")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestShardKeyDeterminism(t *testing.T) {
	body := []byte(`{"source": "var v[1]:\nseq\n  v[0] := 1\n", "pes": 4}`)
	if shardKey(body) != shardKey(body) {
		t.Error("shard key not deterministic")
	}
	// Source-bearing bodies key by fingerprint: param differences must
	// not move a program to a different replica.
	other := []byte(`{"source": "var v[1]:\nseq\n  v[0] := 1\n", "pes": 8}`)
	if shardKey(body) != shardKey(other) {
		t.Error("same program with different pes sharded differently")
	}
	if shardKey(body) != compile.Fingerprint("var v[1]:\nseq\n  v[0] := 1\n", compile.Options{}) {
		t.Error("shard key is not the compile fingerprint")
	}
	if shardKey([]byte("not json")) == shardKey([]byte("also not json")) {
		t.Error("distinct unparseable bodies collided")
	}
}
