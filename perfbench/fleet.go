package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"queuemachine/internal/compile"
	"queuemachine/internal/gate"
	"queuemachine/internal/service"
	"queuemachine/internal/sim"
	"queuemachine/internal/xtrace"
)

// replicaCount is the size of the in-process fleet behind the gate.
const replicaCount = 2

// The replicas answer at fixed host names that fleetDial resolves to
// their loopback listeners. A replica's URL places it on the hash ring,
// so fixed names keep every program on the same replica in every run;
// httptest's ephemeral ports would re-deal the fleet's load split at
// each boot.
var fleetHosts sync.Map // "qmd-N.perfbench:80" → listener address

func replicaHost(i int) string { return fmt.Sprintf("qmd-%d.perfbench", i) }

var defaultDial = http.DefaultTransport.(*http.Transport).DialContext

func fleetDial(ctx context.Context, network, addr string) (net.Conn, error) {
	if real, ok := fleetHosts.Load(addr); ok {
		addr = real.(string)
	}
	return defaultDial(ctx, network, addr)
}

func init() {
	// The gate and the replicas' peer clients dial through the default
	// transport.
	http.DefaultTransport.(*http.Transport).DialContext = fleetDial
}

// requestTimeout bounds one request; a request that takes longer counts
// as failed.
const requestTimeout = 30 * time.Second

// servingFleet is qgate in front of replicaCount qmd replicas, each on a
// loopback httptest server. The replicas are peered on one ring, run one
// worker each and persist artifacts to their own directory.
type servingFleet struct {
	dir      string
	urls     []string
	services []*service.Service
	replicas []*httptest.Server
	gate     *gate.Gate
	front    *httptest.Server
}

// bootFleet starts a fleet whose scratch directories live under workDir.
// traceCapacity sizes every flight recorder.
func bootFleet(workDir string, traceCapacity int) (*servingFleet, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &servingFleet{dir: dir}
	// The replicas must know every URL, their own included, before they
	// are built, so the listeners come first.
	for i := range replicaCount {
		srv := httptest.NewUnstartedServer(nil)
		f.replicas = append(f.replicas, srv)
		f.urls = append(f.urls, "http://"+replicaHost(i))
		fleetHosts.Store(replicaHost(i)+":80", srv.Listener.Addr().String())
	}
	for i, srv := range f.replicas {
		svc, err := service.New(service.Config{
			Workers:       1,
			CacheDir:      filepath.Join(dir, fmt.Sprintf("replica%d", i)),
			Self:          f.urls[i],
			Peers:         f.urls,
			Process:       f.urls[i],
			TraceCapacity: traceCapacity,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.services = append(f.services, svc)
		srv.Config.Handler = svc.Handler()
		srv.Start()
	}
	g, err := gate.New(gate.Config{Replicas: f.urls, TraceCapacity: traceCapacity})
	if err != nil {
		f.close()
		return nil, err
	}
	f.gate = g
	f.front = httptest.NewServer(g.Handler())
	return f, nil
}

// close stops every server, drains the services and removes the
// scratch directories.
func (f *servingFleet) close() {
	if f.front != nil {
		f.front.Close()
	}
	for _, srv := range f.replicas {
		// An unstarted server still holds its listener.
		if srv.URL == "" {
			srv.Listener.Close()
		} else {
			srv.Close()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, svc := range f.services {
		svc.Shutdown(ctx)
	}
	// The next fleet reuses the host names; no connection may outlive
	// the servers it led to.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	os.RemoveAll(f.dir)
}

// replicaStats sums the replicas' /statsz counters the ledger reads.
type replicaStats struct {
	runs, hits, misses, coalesced, rejected, diskWrites, peerFetches int64
}

func (f *servingFleet) stats(c *client) (replicaStats, error) {
	var sum replicaStats
	for _, url := range f.urls {
		resp, err := c.http.Get(url + "/statsz")
		if err != nil {
			return sum, err
		}
		var st service.ServiceStats
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return sum, fmt.Errorf("decode %s/statsz: %w", url, err)
		}
		sum.runs += st.Runs
		sum.hits += st.Cache.Hits
		sum.misses += st.Cache.Misses
		sum.coalesced += st.CoalescedRuns
		sum.rejected += st.Rejected
		if st.Disk != nil {
			sum.diskWrites += st.Disk.Writes
		}
		if st.Peer != nil {
			sum.peerFetches += st.Peer.Fetches
		}
	}
	return sum, nil
}

func (s replicaStats) sub(o replicaStats) replicaStats {
	return replicaStats{s.runs - o.runs, s.hits - o.hits, s.misses - o.misses,
		s.coalesced - o.coalesced, s.rejected - o.rejected,
		s.diskWrites - o.diskWrites, s.peerFetches - o.peerFetches}
}

// traceSpans fetches the fleet-wide stitched span set of one trace from
// the gate.
func (f *servingFleet) traceSpans(c *client, id xtrace.TraceID) ([]xtrace.Span, error) {
	resp, err := c.http.Get(f.front.URL + "/debugz/traces?id=" + string(id))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace %s: status %d", id, resp.StatusCode)
	}
	var doc struct {
		Spans []xtrace.Span `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("trace %s: %w", id, err)
	}
	return doc.Spans, nil
}

// op is one /run the benchmark sends: a program at a machine size, and
// the direct simulation its response must equal.
type op struct {
	src  string
	pes  int
	body []byte
	want *sim.Result // nil until computed
}

func newOp(src string, pes int) *op {
	body, err := json.Marshal(map[string]any{"source": src, "pes": pes, "dump_data": true})
	if err != nil {
		panic(err) // a string and two scalars always marshal
	}
	return &op{src: src, pes: pes, body: body}
}

// computeOracle runs the op directly, outside the serving tier.
func (o *op) computeOracle() error {
	art, err := compile.Compile(o.src, compile.Options{})
	if err != nil {
		return fmt.Errorf("oracle compile: %w", err)
	}
	res, err := sim.Run(art.Object, o.pes, sim.DefaultParams())
	if err != nil {
		return fmt.Errorf("oracle run at %d PEs: %w", o.pes, err)
	}
	o.want = res
	return nil
}

// runReply is the part of a /run response the oracle compares.
type runReply struct {
	Stats *struct {
		Cycles       int64   `json:"cycles"`
		Instructions int64   `json:"instructions"`
		Data         []int32 `json:"data"`
	} `json:"stats"`
}

// check reports whether a reply is bit-identical to the direct run:
// cycles, instructions and the final data segment.
func (o *op) check(r *runReply) error {
	switch {
	case r.Stats == nil:
		return errors.New("reply without stats")
	case r.Stats.Cycles != o.want.Cycles:
		return fmt.Errorf("cycles %d, direct run %d", r.Stats.Cycles, o.want.Cycles)
	case r.Stats.Instructions != o.want.Instructions:
		return fmt.Errorf("instructions %d, direct run %d", r.Stats.Instructions, o.want.Instructions)
	case !slices.Equal(r.Stats.Data, o.want.Data):
		return errors.New("data segment differs from the direct run")
	}
	return nil
}

// client is the load generator's HTTP client: at most conns connections
// to any one server.
type client struct {
	http *http.Client
	tr   *http.Transport
}

func newClient(conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns,
		DisableCompression: true, DialContext: fleetDial}
	return &client{http: &http.Client{Transport: tr, Timeout: requestTimeout}, tr: tr}
}

// send posts op's /run to base. Any answer but a 200 with a decodable
// body is an error: a 429, a 5xx, a transport error or a timeout. A traced
// request carries the trace id and the client's span id as its parent.
func (c *client) send(base string, o *op, trace xtrace.TraceID, parent xtrace.SpanID) (*runReply, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/run", bytes.NewReader(o.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set(xtrace.TraceHeader, string(trace))
		req.Header.Set(xtrace.SpanHeader, string(parent))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var r runReply
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return nil, fmt.Errorf("decode reply: %w", err)
	}
	return &r, nil
}

// tamper wraps a handler and corrupts its /run answers: "cycles" adds
// one to the reported cycle count, "500" replaces the answer with a
// server error.
func tamper(next http.Handler, mode string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if mode == "500" {
			http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
			return
		}
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		var doc map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if stats, ok := doc["stats"].(map[string]any); ok {
			stats["cycles"] = stats["cycles"].(float64) + 1
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(doc)
	})
}

// selfTest proves the oracle path rejects bad answers: through an honest
// gate the op passes, through a tampered one (cycles off by one, or a
// 500) it fails. It returns a description of what went wrong, or "".
func selfTest(f *servingFleet, c *client, o *op) string {
	for _, mode := range []string{"none", "cycles", "500"} {
		h := f.gate.Handler()
		if mode != "none" {
			h = tamper(h, mode)
		}
		srv := httptest.NewServer(h)
		r, err := c.send(srv.URL, o, "", "")
		if err == nil {
			err = o.check(r)
		}
		srv.Close()
		if (mode == "none") != (err == nil) {
			return fmt.Sprintf("self-test %s: oracle verdict %v", mode, err)
		}
	}
	return ""
}
