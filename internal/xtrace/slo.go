package xtrace

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"queuemachine/internal/metrics"
)

// Objective is one route's service-level objective: at least (1 - Budget)
// of requests must finish under P99 and without a server error. The
// default budget of 1% is what makes P99 a p99: one request in a hundred
// may run long or fail before the objective is burning.
type Objective struct {
	Route  string        `json:"route"`
	P99    time.Duration `json:"-"`
	Budget float64       `json:"budget"`
}

// ParseObjectives parses the flag form "route=dur[,route=dur...]", e.g.
// "run=2s,compile=500ms". Budgets take the 1% default.
func ParseObjectives(s string) ([]Objective, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var objs []Objective
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		route, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || route == "" {
			return nil, fmt.Errorf("xtrace: malformed objective %q (want route=duration)", part)
		}
		d, err := time.ParseDuration(val)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("xtrace: objective %q: bad duration %q", route, val)
		}
		if seen[route] {
			return nil, fmt.Errorf("xtrace: duplicate objective for route %q", route)
		}
		seen[route] = true
		objs = append(objs, Objective{Route: route, P99: d})
	}
	return objs, nil
}

// sloState is one route's burn accounting. A request is bad when it ran
// past the latency objective or answered a 5xx; a request that does both
// burns once, not twice.
type sloState struct {
	obj    Objective
	total  atomic.Int64
	slow   atomic.Int64
	errors atomic.Int64
	bad    atomic.Int64
}

// SLOTracker accumulates per-route burn-rate counters against declared
// objectives. A nil tracker is inert, matching the tracer's contract.
type SLOTracker struct {
	routes []*sloState // sorted by route; a handful, so scanned, not hashed
}

// NewSLOTracker builds a tracker over the objectives; nil when none are
// declared, so callers can gate on the pointer alone. Unset budgets
// default to 1%.
func NewSLOTracker(objs []Objective) *SLOTracker {
	if len(objs) == 0 {
		return nil
	}
	t := &SLOTracker{}
	for _, o := range objs {
		if o.Budget <= 0 {
			o.Budget = 0.01
		}
		if t.route(o.Route) == nil {
			t.routes = append(t.routes, &sloState{obj: o})
		}
	}
	sort.Slice(t.routes, func(i, j int) bool { return t.routes[i].obj.Route < t.routes[j].obj.Route })
	return t
}

func (t *SLOTracker) route(name string) *sloState {
	for _, st := range t.routes {
		if st.obj.Route == name {
			return st
		}
	}
	return nil
}

// Observe scores one finished request against its route's objective.
// Routes without an objective, and a nil tracker, are no-ops.
func (t *SLOTracker) Observe(route string, d time.Duration, status int) {
	if t == nil {
		return
	}
	st := t.route(route)
	if st == nil {
		return
	}
	st.total.Add(1)
	slow, failed := d > st.obj.P99, status >= 500
	if slow {
		st.slow.Add(1)
	}
	if failed {
		st.errors.Add(1)
	}
	if slow || failed {
		st.bad.Add(1)
	}
}

// SLOStatus is one route's objective and burn state. BurnRate is the
// observed bad fraction over the budget: 1.0 means burning exactly at
// the objective's limit, above 1 the objective is being missed.
type SLOStatus struct {
	Route            string  `json:"route"`
	TargetP99Seconds float64 `json:"target_p99_seconds"`
	Budget           float64 `json:"budget"`
	Requests         int64   `json:"requests"`
	Slow             int64   `json:"slow"`
	Errors           int64   `json:"errors"`
	Bad              int64   `json:"bad"`
	BadFraction      float64 `json:"bad_fraction"`
	BurnRate         float64 `json:"burn_rate"`
}

// Snapshot returns the per-route burn state, routes sorted.
func (t *SLOTracker) Snapshot() []SLOStatus {
	if t == nil {
		return nil
	}
	out := make([]SLOStatus, 0, len(t.routes))
	for _, st := range t.routes {
		out = append(out, st.status())
	}
	return out
}

func (st *sloState) status() SLOStatus {
	s := SLOStatus{
		Route:            st.obj.Route,
		TargetP99Seconds: st.obj.P99.Seconds(),
		Budget:           st.obj.Budget,
		Requests:         st.total.Load(),
		Slow:             st.slow.Load(),
		Errors:           st.errors.Load(),
		Bad:              st.bad.Load(),
	}
	if s.Requests > 0 {
		s.BadFraction = float64(s.Bad) / float64(s.Requests)
		s.BurnRate = s.BadFraction / st.obj.Budget
	}
	return s
}

// Register declares the tracker's per-route families in reg under
// prefix: <prefix>_slo_{requests,slow,errors,bad}_total and
// <prefix>_slo_burn_rate, each labelled by route. A nil tracker
// declares nothing.
func (t *SLOTracker) Register(reg *metrics.Registry, prefix string) {
	if t == nil {
		return
	}
	for _, st := range t.routes {
		route := st.obj.Route
		reg.CounterFunc(prefix+"_slo_requests_total", "Requests scored against a route objective.",
			func() float64 { return float64(st.total.Load()) }, "route", route)
		reg.CounterFunc(prefix+"_slo_slow_total", "Requests over the route's latency objective.",
			func() float64 { return float64(st.slow.Load()) }, "route", route)
		reg.CounterFunc(prefix+"_slo_errors_total", "Requests answered 5xx on an objective route.",
			func() float64 { return float64(st.errors.Load()) }, "route", route)
		reg.CounterFunc(prefix+"_slo_bad_total", "Requests burning error budget (slow or 5xx, counted once).",
			func() float64 { return float64(st.bad.Load()) }, "route", route)
		reg.Gauge(prefix+"_slo_burn_rate", "Bad fraction over budget; 1 burns exactly at the objective.",
			func() float64 { return st.status().BurnRate }, "route", route)
	}
}
