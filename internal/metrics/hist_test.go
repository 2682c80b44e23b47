package metrics

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// TestHistogramMergePropertyAgainstOracle checks, over many random
// sample sets, that (a) merging shard histograms is count-for-count
// identical to observing every sample on one histogram, and (b) the
// merged quantiles stay within the bucket layout's relative-error bound
// of a sorted-slice oracle.
func TestHistogramMergePropertyAgainstOracle(t *testing.T) {
	// One bucket spans a 2^(1/4) ratio and Quantile interpolates inside
	// it, so any estimate is within one bucket ratio of the true value;
	// allow two ratios for rank-boundary effects in the oracle.
	maxRatio := math.Pow(2, 2.0/4)
	for seed := uint64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed))
		nShards := 2 + int(rng.Uint64()%3)
		shards := make([]*Histogram, nShards)
		direct := NewLatencyHistogram()
		var all []float64
		for i := range shards {
			shards[i] = NewLatencyHistogram()
			n := 50 + int(rng.Uint64()%500)
			for j := 0; j < n; j++ {
				// Log-uniform over 60µs..60s: exercises most buckets.
				secs := math.Exp(math.Log(60e-6) + rng.Float64()*math.Log(1e6))
				d := time.Duration(secs * float64(time.Second))
				shards[i].Observe(d)
				direct.Observe(d)
				all = append(all, d.Seconds())
			}
		}
		merged := NewLatencyHistogram()
		for _, s := range shards {
			if err := merged.Merge(s); err != nil {
				t.Fatalf("seed %d: Merge: %v", seed, err)
			}
		}
		// (a) Bitwise agreement with direct observation.
		if merged.Count() != direct.Count() || merged.Max() != direct.Max() {
			t.Fatalf("seed %d: merged count/max %d/%v, direct %d/%v",
				seed, merged.Count(), merged.Max(), direct.Count(), direct.Max())
		}
		for i := range merged.counts {
			if m, d := merged.counts[i].Load(), direct.counts[i].Load(); m != d {
				t.Fatalf("seed %d: bucket %d merged %d direct %d", seed, i, m, d)
			}
		}
		if merged.sumNs.Load() != direct.sumNs.Load() {
			t.Fatalf("seed %d: sums differ", seed)
		}
		// (b) Quantiles against the sorted-slice oracle.
		sort.Float64s(all)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			idx := int(math.Ceil(q*float64(len(all)))) - 1
			oracle := all[idx]
			got := merged.Quantile(q).Seconds()
			if got/oracle > maxRatio || oracle/got > maxRatio {
				t.Errorf("seed %d: q%.2f = %.6fs, oracle %.6fs (ratio %.3f > %.3f)",
					seed, q, got, oracle, math.Max(got/oracle, oracle/got), maxRatio)
			}
		}
	}
}

func TestHistogramMergeRejectsLayoutMismatch(t *testing.T) {
	a := NewLatencyHistogram()
	b := &Histogram{bounds: []float64{1}, counts: make([]atomic.Int64, 2)}
	if err := a.Merge(b); err == nil {
		t.Fatal("Merge accepted a mismatched layout")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewLatencyHistogram()
	// 1000 samples at 1ms, 10 at 100ms: p50 near 1ms, p999 near 100ms.
	for i := 0; i < 1000; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	if n := h.Count(); n != 1010 {
		t.Fatalf("Count = %d", n)
	}
	p50 := h.Quantile(0.5)
	if p50 < 500*time.Microsecond || p50 > 2*time.Millisecond {
		t.Errorf("p50 = %v, want ~1ms", p50)
	}
	p999 := h.Quantile(0.999)
	if p999 < 50*time.Millisecond || p999 > 200*time.Millisecond {
		t.Errorf("p999 = %v, want ~100ms", p999)
	}
	if max := h.Max(); max < 100*time.Millisecond || max > 101*time.Millisecond {
		t.Errorf("max = %v", max)
	}
	s := h.Snapshot()
	if s.Count != 1010 || s.P50Seconds <= 0 || s.P999Seconds < s.P50Seconds {
		t.Errorf("snapshot = %+v", s)
	}
	if len(s.Buckets) == 0 || s.Buckets[len(s.Buckets)-1].Cumulative < 1000 {
		t.Errorf("snapshot buckets truncated wrongly: %d buckets", len(s.Buckets))
	}
	// Cumulative curve is monotone.
	var prev int64
	for _, b := range s.Buckets {
		if b.Cumulative < prev {
			t.Fatalf("bucket curve not monotone at le=%g", b.UpperSeconds)
		}
		prev = b.Cumulative
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Error("empty histogram reports non-zero statistics")
	}
	if s := h.Snapshot(); s.Count != 0 || s.Buckets != nil {
		t.Errorf("empty snapshot = %+v", s)
	}
}
