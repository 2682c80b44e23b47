// Package metrics is the serving tier's one metrics registry. A daemon
// declares each counter, gauge and histogram once, with a fixed label
// set, on its own Registry. The handle a declaration returns is what the
// hot path increments (one atomic add; nothing is looked up, locked or
// formatted per request) and what the daemon's JSON stats document
// reads, while the Registry serves the same values as Prometheus text
// (exposition format 0.0.4): one writer for qmd and qgate alike. A value
// derived from other state (a queue length, uptime, a merged histogram)
// is declared as a func over that state, so no value is stored twice.
package metrics

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
)

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

func (c *Counter) Inc()        { c.v.Add(1) }
func (c *Counter) Add(n int64) { c.v.Add(n) }
func (c *Counter) Load() int64 { return c.v.Load() }

// CounterVec is one counter family over a label's fixed list of values,
// each value's counter declared up front.
type CounterVec struct {
	values   []string
	counters []*Counter
}

// With returns the counter for a label value, or nil for a value outside
// the declared list. It scans the list: no map, no lock.
func (v *CounterVec) With(value string) *Counter {
	for i, x := range v.values {
		if x == value {
			return v.counters[i]
		}
	}
	return nil
}

// Map returns the count of every label value observed at least once, or
// nil when none has been: JSON views omit the values not yet seen.
func (v *CounterVec) Map() map[string]int64 {
	var m map[string]int64
	for i, c := range v.counters {
		if n := c.Load(); n != 0 {
			if m == nil {
				m = make(map[string]int64)
			}
			m[v.values[i]] = n
		}
	}
	return m
}

// Registry is one daemon's metric families in declaration order. Every
// series is declared while the daemon is built, before it serves.
type Registry struct{ families []*family }

type family struct {
	name, help, typ string
	series          []series
}

// series is one labelled time series: value for a counter or gauge,
// hist for a histogram.
type series struct {
	labels string // rendered `k="v",...`; empty when unlabelled
	value  func() float64
	hist   func() *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter declares a counter series and returns its handle. labels are
// alternating names and values. Declaring a name again adds a series to
// the same family (the help text must match); declaring one name and
// label set twice is a programming error and panics.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := new(Counter)
	r.CounterFunc(name, help, func() float64 { return float64(c.Load()) }, labels...)
	return c
}

// CounterFunc declares a counter series whose value f reads from state
// kept elsewhere.
func (r *Registry) CounterFunc(name, help string, f func() float64, labels ...string) {
	r.add(name, help, "counter", series{value: f}, labels)
}

// CounterVec declares one counter per value of a single label.
func (r *Registry) CounterVec(name, help, label string, values ...string) *CounterVec {
	v := &CounterVec{values: values}
	for _, val := range values {
		v.counters = append(v.counters, r.Counter(name, help, label, val))
	}
	return v
}

// Gauge declares a gauge series whose value f reads from the state it
// describes.
func (r *Registry) Gauge(name, help string, f func() float64, labels ...string) {
	r.add(name, help, "gauge", series{value: f}, labels)
}

// Histogram declares a histogram series over the given bucket bounds and
// returns its handle.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	h := NewHistogram(bounds)
	r.HistogramFunc(name, help, func() *Histogram { return h }, labels...)
	return h
}

// HistogramFunc declares a histogram series that f builds when scraped,
// such as a merge of other histograms.
func (r *Registry) HistogramFunc(name, help string, f func() *Histogram, labels ...string) {
	r.add(name, help, "histogram", series{hist: f}, labels)
}

func (r *Registry) add(name, help, typ string, s series, labels []string) {
	var pairs []string
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+`="`+labelEscaper.Replace(labels[i+1])+`"`)
	}
	s.labels = strings.Join(pairs, ",")
	var f *family
	for _, x := range r.families {
		if x.name == name {
			f = x
		}
	}
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.families = append(r.families, f)
	}
	if f.help != help || f.typ != typ || len(labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: %s redeclared with another type or help, or odd labels %q", name, labels))
	}
	for _, o := range f.series {
		if o.labels == s.labels {
			panic(fmt.Sprintf("metrics: %s{%s} declared twice", name, s.labels))
		}
	}
	f.series = append(f.series, s)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// ServeHTTP writes every family in Prometheus text exposition format
// 0.0.4: one HELP and one TYPE line per family, then its series. A
// histogram series is its cumulative buckets, +Inf last, then _sum in
// seconds and _count.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	for _, f := range r.families {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, s := range f.series {
			if s.hist == nil {
				sample(bw, f.name, s.labels, s.value())
				continue
			}
			h, le := s.hist(), s.labels+`,le="`
			if s.labels == "" {
				le = `le="`
			}
			var cum int64
			for i := range h.counts {
				cum += h.counts[i].Load()
				bound := "+Inf"
				if i < len(h.bounds) {
					bound = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
				}
				sample(bw, f.name+"_bucket", le+bound+`"`, float64(cum))
			}
			sample(bw, f.name+"_sum", s.labels, h.Sum().Seconds())
			sample(bw, f.name+"_count", s.labels, float64(cum))
		}
	}
}

// sample writes one line, printing whole numbers as integers and any
// other value in the shortest form that parses back to the same float64.
func sample(w *bufio.Writer, name, labels string, v float64) {
	w.WriteString(name)
	if labels != "" {
		w.WriteString("{" + labels + "}")
	}
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		fmt.Fprintf(w, " %d\n", int64(v))
	} else {
		fmt.Fprintf(w, " %s\n", strconv.FormatFloat(v, 'g', -1, 64))
	}
}
