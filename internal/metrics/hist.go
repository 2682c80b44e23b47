package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a latency histogram over a fixed, ascending list of bucket
// upper bounds in seconds. Observation is lock-free. The total count is
// the sum of the buckets rather than a field of its own, so a reader
// never sees a count that disagrees with the bucket curve.
type Histogram struct {
	bounds []float64      // bucket upper bounds in seconds, ascending
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	sumNs  atomic.Int64
	maxNs  atomic.Int64
}

// NewHistogram builds a histogram over the given bucket bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// LatencyBounds is the HDR-style layout: geometric buckets at four per
// octave from 50µs to beyond two minutes, so the relative error of any
// reported quantile is bounded by the bucket ratio (~19%) wherever the
// latency mass lands.
func LatencyBounds() []float64 {
	const (
		lo    = 50e-6
		hi    = 130.0                 // past any deadline the service accepts
		ratio = 1.1892071150027210667 // 2^(1/4)
	)
	var b []float64
	for v := lo; v < hi; v *= ratio {
		b = append(b, v)
	}
	return b
}

// NewLatencyHistogram builds a histogram with the LatencyBounds layout.
func NewLatencyHistogram() *Histogram { return NewHistogram(LatencyBounds()) }

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[sort.SearchFloat64s(h.bounds, d.Seconds())].Add(1)
	h.sumNs.Add(int64(d))
	for {
		cur := h.maxNs.Load()
		if int64(d) <= cur || h.maxNs.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// ObserveSince records the time elapsed since start; use as
// `defer h.ObserveSince(time.Now())`.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the total of every observed latency.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// Mean returns the mean observed latency (0 with no observations).
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNs.Load() / n)
}

// Max returns the largest observed latency.
func (h *Histogram) Max() time.Duration { return time.Duration(h.maxNs.Load()) }

// Quantile estimates the q-quantile (0 < q <= 1) by geometric
// interpolation within the containing bucket, which is the natural
// interpolant for log-spaced bounds. It returns 0 with no observations.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo := h.bounds[0] / 2 // a floor for the open first bucket
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[len(h.bounds)-1] * 2
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			// Fraction of this bucket's mass below the target rank.
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return time.Duration(lo * math.Pow(hi/lo, frac) * float64(time.Second))
		}
		cum += c
	}
	return h.Max()
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	UpperSeconds float64 `json:"le"`
	Cumulative   int64   `json:"count"`
}

// Snapshot is the serializable view of a Histogram: headline quantiles
// plus the non-empty prefix of the cumulative bucket curve (so JSON
// reports stay compact while remaining re-aggregatable).
type Snapshot struct {
	Count       int64    `json:"count"`
	SumSeconds  float64  `json:"sum_seconds"`
	MeanSeconds float64  `json:"mean_seconds"`
	MaxSeconds  float64  `json:"max_seconds"`
	P50Seconds  float64  `json:"p50_seconds"`
	P90Seconds  float64  `json:"p90_seconds"`
	P99Seconds  float64  `json:"p99_seconds"`
	P999Seconds float64  `json:"p999_seconds"`
	Buckets     []Bucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{
		Count:       h.Count(),
		SumSeconds:  h.Sum().Seconds(),
		MeanSeconds: h.Mean().Seconds(),
		MaxSeconds:  h.Max().Seconds(),
		P50Seconds:  h.Quantile(0.50).Seconds(),
		P90Seconds:  h.Quantile(0.90).Seconds(),
		P99Seconds:  h.Quantile(0.99).Seconds(),
		P999Seconds: h.Quantile(0.999).Seconds(),
	}
	var cum int64
	last := -1
	for i, b := range h.bounds {
		c := h.counts[i].Load()
		cum += c
		if c != 0 {
			last = i
		}
		s.Buckets = append(s.Buckets, Bucket{UpperSeconds: b, Cumulative: cum})
	}
	// Trim trailing empty buckets; keep one past the last occupied bound
	// so the curve visibly flattens.
	if last+2 < len(s.Buckets) {
		s.Buckets = s.Buckets[:last+2]
	}
	if s.Count == 0 {
		s.Buckets = nil
	}
	return s
}

// Merge folds o's observations into h, bucket by bucket, so per-shard
// histograms aggregate into a fleet-wide one without re-observing: the
// merged histogram is count-for-count identical to one that observed
// every underlying sample directly. Both histograms must share the
// bucket layout. Merging a histogram that is concurrently observing is
// safe and yields some consistent interleaving.
func (h *Histogram) Merge(o *Histogram) error {
	if !slices.Equal(h.bounds, o.bounds) || len(h.counts) != len(o.counts) {
		return fmt.Errorf("metrics: histogram layouts differ (%d vs %d buckets)",
			len(h.counts), len(o.counts))
	}
	for i := range o.counts {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.sumNs.Add(o.sumNs.Load())
	for {
		om, cur := o.maxNs.Load(), h.maxNs.Load()
		if om <= cur || h.maxNs.CompareAndSwap(cur, om) {
			break
		}
	}
	return nil
}
