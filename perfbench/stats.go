package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapSampler tracks the peak of the Go heap in use (live and not yet
// swept objects) while it runs. runtime/metrics reads without stopping
// the world, so sampling does not perturb what it measures.
type heapSampler struct {
	stop chan struct{}
	done chan float64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: heapMetric}}
		var peak uint64
		read := func() {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
		}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		read()
		for {
			select {
			case <-h.stop:
				read()
				h.done <- float64(peak) / 1e6
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in megabytes.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	return <-h.done
}
