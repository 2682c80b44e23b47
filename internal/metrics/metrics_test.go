package metrics

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestExposition pins the writer's output for every kind of series: one
// HELP and TYPE per family however its series were declared, labels in
// declaration order, histograms as cumulative buckets then _sum and
// _count, and values printed as integers when whole.
func TestExposition(t *testing.T) {
	reg := NewRegistry()
	reqs := reg.Counter("x_requests_total", "Requests.")
	reg.Counter("x_requests_total", "Requests.", "route", `a"b`).Add(2)
	byPolicy := reg.CounterVec("x_runs_total", "Runs.", "policy", "fifo", "steal")
	reg.Gauge("x_ratio", "A ratio.", func() float64 { return 0.25 })
	lat := reg.Histogram("x_seconds", "Latency.", []float64{0.001, 1}, "endpoint", "run")
	reg.HistogramFunc("x_merged_seconds", "Merged.", func() *Histogram { return lat })

	reqs.Inc()
	byPolicy.With("steal").Add(3)
	lat.Observe(500 * time.Microsecond)
	lat.Observe(2 * time.Second)

	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	want := `# HELP x_requests_total Requests.
# TYPE x_requests_total counter
x_requests_total 1
x_requests_total{route="a\"b"} 2
# HELP x_runs_total Runs.
# TYPE x_runs_total counter
x_runs_total{policy="fifo"} 0
x_runs_total{policy="steal"} 3
# HELP x_ratio A ratio.
# TYPE x_ratio gauge
x_ratio 0.25
# HELP x_seconds Latency.
# TYPE x_seconds histogram
x_seconds_bucket{endpoint="run",le="0.001"} 1
x_seconds_bucket{endpoint="run",le="1"} 1
x_seconds_bucket{endpoint="run",le="+Inf"} 2
x_seconds_sum{endpoint="run"} 2.0005
x_seconds_count{endpoint="run"} 2
# HELP x_merged_seconds Merged.
# TYPE x_merged_seconds histogram
x_merged_seconds_bucket{le="0.001"} 1
x_merged_seconds_bucket{le="1"} 1
x_merged_seconds_bucket{le="+Inf"} 2
x_merged_seconds_sum 2.0005
x_merged_seconds_count 2
`
	if got := rec.Body.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if m := byPolicy.Map(); len(m) != 1 || m["steal"] != 3 {
		t.Errorf("Map() = %v, want only the observed policy", m)
	}
	if byPolicy.With("lottery") != nil {
		t.Error("With returned a counter for an undeclared label value")
	}
}

func TestRedeclarationPanics(t *testing.T) {
	for name, declare := range map[string]func(*Registry){
		"same series": func(r *Registry) { r.Counter("x_total", "X.") },
		"other help":  func(r *Registry) { r.Counter("x_total", "Y.", "k", "v") },
		"other type":  func(r *Registry) { r.Gauge("x_total", "X.", func() float64 { return 0 }, "k", "v") },
	} {
		reg := NewRegistry()
		reg.Counter("x_total", "X.")
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: redeclaration accepted", name)
				}
			}()
			declare(reg)
		}()
	}
}
