package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// waiters totals the requests currently parked on flights, across keys.
func (g *flightGroup) waiters() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, f := range g.flights {
		n += f.waiters
	}
	return n
}

// blockWorker occupies the service's (single) pool worker until the
// returned release function is called.
func blockWorker(t *testing.T, svc *Service) func() {
	t.Helper()
	release := make(chan struct{})
	started := make(chan struct{})
	err := svc.pool.submit(func() {
		close(started)
		<-release
	})
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	<-started
	var once sync.Once
	return func() { once.Do(func() { close(release) }) }
}

// TestRunCoalescing hammers one fingerprint with concurrent identical
// /run requests while the only worker is blocked, so every request is
// provably in the building before any can execute: exactly one compile
// and one simulation must serve all of them.
func TestRunCoalescing(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 16})
	release := blockWorker(t, svc)
	defer release()

	const n = 8
	body, _ := json.Marshal(map[string]any{"source": sumSquares, "pes": 2})
	type reply struct {
		status int
		body   []byte
	}
	replies := make([]reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			replies[i] = reply{resp.StatusCode, buf.Bytes()}
		}()
	}
	// Wait until all n requests are parked on the flight (leader
	// included), then let the worker go. Polling the flight group — not
	// the request counter — closes the window between a request being
	// counted and it joining the flight.
	deadline := time.Now().Add(10 * time.Second)
	for svc.flights.waiters() < n {
		if time.Now().After(deadline) {
			release()
			t.Fatalf("only %d/%d requests joined the flight", svc.flights.waiters(), n)
		}
		time.Sleep(time.Millisecond)
	}
	release()
	wg.Wait()

	var leader, followers int
	var stats []string
	for i, r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("run %d: status %d: %s", i, r.status, r.body)
		}
		var out struct {
			Fingerprint string          `json:"fingerprint"`
			Coalesced   bool            `json:"coalesced"`
			CacheState  string          `json:"cache"`
			Stats       json.RawMessage `json:"stats"`
		}
		if err := json.Unmarshal(r.body, &out); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if out.Coalesced {
			followers++
			if out.CacheState != cacheStateCoalesced {
				t.Errorf("run %d: coalesced but cache = %q", i, out.CacheState)
			}
		} else {
			leader++
			if out.CacheState != cacheStateMiss {
				t.Errorf("leader cache = %q, want %q", out.CacheState, cacheStateMiss)
			}
		}
		stats = append(stats, string(out.Stats))
	}
	if leader != 1 || followers != n-1 {
		t.Errorf("leaders = %d, followers = %d; want 1 and %d", leader, followers, n-1)
	}
	for i := 1; i < len(stats); i++ {
		if stats[i] != stats[0] {
			t.Errorf("run %d stats differ from run 0:\n%s\nvs\n%s", i, stats[i], stats[0])
		}
	}
	// Exactly one request consulted the cache (one miss, no hits), one
	// simulation ran, and the other n-1 were counted as coalesced — never
	// as cache hits.
	cs := svc.cache.stats()
	if cs.Misses != 1 || cs.Hits != 0 {
		t.Errorf("cache hits/misses = %d/%d, want 0/1", cs.Hits, cs.Misses)
	}
	if got := svc.coalescedRuns.Load(); got != n-1 {
		t.Errorf("coalescedRuns = %d, want %d", got, n-1)
	}
	var one struct {
		Cycles int64 `json:"cycles"`
	}
	if err := json.Unmarshal([]byte(stats[0]), &one); err != nil {
		t.Fatal(err)
	}
	if got := svc.cyclesServed.Load(); got != one.Cycles {
		t.Errorf("cyclesServed = %d, want one run's %d cycles", got, one.Cycles)
	}
	// /metrics must tell the same story as the internal counters.
	m := scrape(t, ts.URL)
	if got := m[`qmd_coalesced_total{endpoint="run"}`]; got != n-1 {
		t.Errorf(`qmd_coalesced_total{endpoint="run"} = %v, want %d`, got, n-1)
	}
	if got := m["qmd_cache_misses_total"]; got != 1 {
		t.Errorf("qmd_cache_misses_total = %v, want 1", got)
	}
	if got := m["qmd_cache_hits_total"]; got != 0 {
		t.Errorf("qmd_cache_hits_total = %v, want 0: followers must not count as hits", got)
	}
}

// TestCompileCoalescing is the compile-side twin: concurrent identical
// compiles share one underlying compilation.
func TestCompileCoalescing(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 16})
	release := blockWorker(t, svc)
	defer release()

	const n = 4
	body, _ := json.Marshal(map[string]any{"source": sumSquares})
	results := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("compile %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("compile %d: status %d", i, resp.StatusCode)
			}
			results[i] = resp.Header.Get(cacheHeader)
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for svc.flights.waiters() < n {
		if time.Now().After(deadline) {
			release()
			t.Fatalf("only %d/%d compiles joined the flight", svc.flights.waiters(), n)
		}
		time.Sleep(time.Millisecond)
	}
	release()
	wg.Wait()

	counts := map[string]int{}
	for _, h := range results {
		counts[h]++
	}
	if counts[cacheStateMiss] != 1 || counts[cacheStateCoalesced] != n-1 {
		t.Errorf("cache headers = %v, want 1 %q and %d %q",
			counts, cacheStateMiss, n-1, cacheStateCoalesced)
	}
	if got := svc.coalescedCompiles.Load(); got != n-1 {
		t.Errorf("coalescedCompiles = %d, want %d", got, n-1)
	}
	cs := svc.cache.stats()
	if cs.Misses != 1 || cs.Hits != 0 {
		t.Errorf("cache hits/misses = %d/%d, want 0/1", cs.Hits, cs.Misses)
	}
}

// TestDistinctRunsDoNotCoalesce: the run key covers everything that
// changes the result, so the same program at different machine sizes
// must execute separately.
func TestDistinctRunsDoNotCoalesce(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16})
	for _, pes := range []int{1, 2, 4} {
		status, raw := post(t, ts.URL+"/run", map[string]any{"source": sumSquares, "pes": pes}, nil)
		if status != http.StatusOK {
			t.Fatalf("pes=%d: status %d: %s", pes, status, raw)
		}
	}
	if got := svc.coalescedRuns.Load(); got != 0 {
		t.Errorf("sequential distinct runs coalesced %d times", got)
	}
	// One compile, then two source-cache hits.
	cs := svc.cache.stats()
	if cs.Misses != 1 || cs.Hits != 2 {
		t.Errorf("cache hits/misses = %d/%d, want 2/1", cs.Hits, cs.Misses)
	}
}

// TestRetryAfterJitter: every 429 carries a Retry-After within the
// documented bounds, and the values actually vary so a thundering herd
// does not re-stampede in lockstep.
func TestRetryAfterJitter(t *testing.T) {
	svc, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		rec := httptest.NewRecorder()
		svc.error(context.Background(), rec, errBusy)
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429", rec.Code)
		}
		v, err := strconv.Atoi(rec.Header().Get("Retry-After"))
		if err != nil {
			t.Fatalf("Retry-After %q: %v", rec.Header().Get("Retry-After"), err)
		}
		if v < retryAfterMin || v > retryAfterMax {
			t.Fatalf("Retry-After = %d outside [%d, %d]", v, retryAfterMin, retryAfterMax)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Errorf("200 draws produced a single Retry-After value %v; jitter missing", seen)
	}
}

// TestCacheEvictionUnderLoad churns a small LRU from many goroutines
// with a key space far larger than capacity: the invariants are bounded
// residency and coherent accounting, under -race.
func TestCacheEvictionUnderLoad(t *testing.T) {
	const capacity = 8
	c := newProgramCache(capacity)
	base := compileFor(t, 0)
	const goroutines = 16
	const ops = 500
	const keys = 64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%keys)
				if _, ok := c.get(key); !ok {
					c.add(key, base)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.stats()
	if st.Entries > capacity {
		t.Errorf("entries = %d exceeds capacity %d", st.Entries, capacity)
	}
	if st.Hits+st.Misses != goroutines*ops {
		t.Errorf("hits %d + misses %d != %d gets", st.Hits, st.Misses, goroutines*ops)
	}
	// Every miss triggered an add; adds beyond capacity must be matched
	// by evictions (refreshes of a resident key evict nothing, so
	// evictions can be lower, never higher).
	if st.Evictions > st.Misses {
		t.Errorf("evictions %d exceed misses %d", st.Evictions, st.Misses)
	}
}
