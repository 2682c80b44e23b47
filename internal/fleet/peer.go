package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"queuemachine/internal/compile"
	"queuemachine/internal/isa"
	"queuemachine/internal/xtrace"
)

// PeerHeader marks a request as originating from another replica rather
// than a client. A replica answers a peer-marked /compile from its memory
// and never forwards it, so a request takes at most one peer hop.
const PeerHeader = "X-Qmd-Peer"

// WorkersHeader carries a replica's worker count on every response it
// sends. qgate reads it to tell when all of a replica's workers are busy.
const WorkersHeader = "X-Qmd-Workers"

// ErrDeclined is wrapped by FetchCompile's error when the peer answers
// 404: it does not hold the program in memory. A declined lookup is a
// healthy outcome, not a failed peer.
var ErrDeclined = errors.New("program not in peer memory")

// CompileOptions mirrors compile.Options with the service's stable wire
// names; it is the JSON shape of the "options" field on /compile and
// /run requests, shared by the service handlers, the peer client, and
// the qgate request parser so the three can never drift apart.
type CompileOptions struct {
	NoInputOrder bool `json:"no_input_order,omitempty"`
	NoLiveFilter bool `json:"no_live_filter,omitempty"`
	NoPriority   bool `json:"no_priority,omitempty"`
	NoConstFold  bool `json:"no_const_fold,omitempty"`
}

// ToCompile converts the wire form into the compiler's option set.
func (o CompileOptions) ToCompile() compile.Options {
	return compile.Options{
		NoInputOrder: o.NoInputOrder,
		NoLiveFilter: o.NoLiveFilter,
		NoPriority:   o.NoPriority,
		NoConstFold:  o.NoConstFold,
	}
}

// OptionsFromCompile is the inverse of ToCompile.
func OptionsFromCompile(o compile.Options) CompileOptions {
	return CompileOptions{
		NoInputOrder: o.NoInputOrder,
		NoLiveFilter: o.NoLiveFilter,
		NoPriority:   o.NoPriority,
		NoConstFold:  o.NoConstFold,
	}
}

// Client fetches compiled artifacts from peer replicas and probes their
// health. The zero value is not usable; build one with NewClient.
type Client struct {
	http *http.Client
}

// NewClient builds a peer client whose requests are bounded by timeout
// (<= 0: unbounded).
func NewClient(timeout time.Duration) *Client {
	return &Client{http: &http.Client{Timeout: timeout}}
}

// peerCompileRequest and peerCompileResponse are the slices of the
// /compile wire protocol the peer exchange uses.
type peerCompileRequest struct {
	Source  string         `json:"source"`
	Options CompileOptions `json:"options"`
}

type peerCompileResponse struct {
	Fingerprint string      `json:"fingerprint"`
	Object      *isa.Object `json:"object"`
}

// FetchCompile asks the peer at base for the object program of source
// and returns it, unvalidated, with each graph's code trimmed to its
// length. The request carries PeerHeader, so the peer answers from its
// memory alone: it never compiles, takes a worker or forwards for a
// peer, and a program it does not hold comes back as an error wrapping
// ErrDeclined.
func (c *Client) FetchCompile(ctx context.Context, base, source string, opts compile.Options) (*isa.Object, error) {
	body, err := json.Marshal(peerCompileRequest{Source: source, Options: OptionsFromCompile(opts)})
	if err != nil {
		return nil, fmt.Errorf("fleet: encode peer compile: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/compile", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("fleet: peer request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(PeerHeader, "1")
	// A traced artifact miss stays traced across the hop: the owning
	// peer's lookup span joins the same trace, parented to the span
	// active on ctx, so the stitched view shows the remote lookup
	// inside the requesting replica's peer.fetch span.
	xtrace.Inject(ctx, req.Header)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fleet: peer %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("fleet: peer %s: %w", base, ErrDeclined)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("fleet: peer %s answered %d: %s", base, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var pr peerCompileResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return nil, fmt.Errorf("fleet: decode peer response: %w", err)
	}
	if pr.Object == nil {
		return nil, fmt.Errorf("fleet: peer %s returned no object", base)
	}
	// The object is not validated here: the caller admits it through
	// pe.LoadProgram, which rejects exactly what Validate would.
	pr.Object.TrimCode()
	return pr.Object, nil
}

// CheckHealth probes base's /healthz and returns nil when the replica
// answers 200 within ctx's deadline.
func (c *Client) CheckHealth(ctx context.Context, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return fmt.Errorf("fleet: health request: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("fleet: health %s: %w", base, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: health %s: status %d", base, resp.StatusCode)
	}
	return nil
}
