package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"queuemachine/internal/compile"
	"queuemachine/internal/workloads"
)

const peerTestSource = "var v[1]:\nseq\n  v[0] := 7\n"

// fakePeer implements just enough of the qmd wire protocol for the
// client: /compile compiles for real, /healthz toggles.
func fakePeer(t *testing.T, healthy *atomic.Bool, sawPeerHeader *atomic.Bool) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /compile", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(PeerHeader) != "" {
			sawPeerHeader.Store(true)
		}
		var req peerCompileRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		art, err := compile.Compile(req.Source, req.Options.ToCompile())
		if err != nil {
			w.WriteHeader(http.StatusUnprocessableEntity)
			json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
			return
		}
		json.NewEncoder(w).Encode(peerCompileResponse{
			Fingerprint: compile.Fingerprint(req.Source, req.Options.ToCompile()),
			Object:      art.Object,
		})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func TestClientFetchCompile(t *testing.T) {
	var healthy, sawHeader atomic.Bool
	healthy.Store(true)
	ts := fakePeer(t, &healthy, &sawHeader)
	c := NewClient(0)
	obj, err := c.FetchCompile(context.Background(), ts.URL, peerTestSource, compile.Options{})
	if err != nil {
		t.Fatalf("FetchCompile: %v", err)
	}
	if len(obj.Graphs) == 0 {
		t.Error("fetched object has no graphs")
	}
	// A program with streams long enough that JSON decoding leaves
	// slack comes back with exact-length code.
	big, err := c.FetchCompile(context.Background(), ts.URL, workloads.MatMul(3).Source, compile.Options{})
	if err != nil {
		t.Fatalf("FetchCompile: %v", err)
	}
	for _, g := range big.Graphs {
		if cap(g.Code) != len(g.Code) {
			t.Errorf("graph %q: code cap %d, len %d", g.Name, cap(g.Code), len(g.Code))
		}
	}
	if !sawHeader.Load() {
		t.Error("peer request did not carry the peer header")
	}
	// A compile failure surfaces as an error, not a nil object.
	if _, err := c.FetchCompile(context.Background(), ts.URL, "seq\n  nope := 1\n", compile.Options{}); err == nil {
		t.Error("FetchCompile of invalid source succeeded")
	}
}

func TestClientCheckHealth(t *testing.T) {
	var healthy, sawHeader atomic.Bool
	healthy.Store(true)
	ts := fakePeer(t, &healthy, &sawHeader)
	c := NewClient(0)
	if err := c.CheckHealth(context.Background(), ts.URL); err != nil {
		t.Fatalf("CheckHealth on healthy peer: %v", err)
	}
	healthy.Store(false)
	if err := c.CheckHealth(context.Background(), ts.URL); err == nil {
		t.Error("CheckHealth on draining peer succeeded")
	}
	ts.Close()
	if err := c.CheckHealth(context.Background(), ts.URL); err == nil {
		t.Error("CheckHealth on dead peer succeeded")
	}
}

func TestCompileOptionsRoundTrip(t *testing.T) {
	all := compile.Options{NoInputOrder: true, NoLiveFilter: true, NoPriority: true, NoConstFold: true}
	if got := OptionsFromCompile(all).ToCompile(); got != all {
		t.Errorf("round trip = %+v, want %+v", got, all)
	}
	var none compile.Options
	if got := OptionsFromCompile(none).ToCompile(); got != none {
		t.Errorf("zero round trip = %+v", got)
	}
}
