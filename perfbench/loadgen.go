package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark generates its own load rather than calling load.Run:
// load.Run starts a request's clock when the request fires, so a stall
// that delays later requests never shows in their latency, and it drops
// requests beyond its in-flight cap instead of timing their wait.

// sample is one open-loop request as the generator saw it.
type sample struct {
	due, sent, done time.Time
	ok              bool
}

func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

func (s sample) late() time.Duration { return s.sent.Sub(s.due) }

// openLoop issues n requests on a fixed schedule, request i due at
// start + i/rate, from conns senders. A sender takes the next request
// when it is free and sends it at its due time, or at once if that has
// passed, so every request's latency is timed from when it was due: the
// wait a slow response imposes on the requests behind it is counted.
// do(i) sends request i and reports whether it succeeded.
func openLoop(n int, rate float64, conns int, do func(i int) bool) []sample {
	samples := make([]sample, n)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				s := &samples[i]
				s.due, s.sent = due, time.Now()
				s.ok = do(i)
				s.done = time.Now()
			}
		}()
	}
	wg.Wait()
	return samples
}

// closedLoop runs clients that each send their next request as soon as
// the previous one completes, until d has elapsed. Requests are numbered
// from first on, in the order they are sent. It returns the number of
// requests sent and that succeeded, and the time the loop ran.
func closedLoop(d time.Duration, clients, first int, do func(i int) bool) (sent, ok int64, elapsed time.Duration) {
	var next, good atomic.Int64
	next.Store(int64(first))
	start := time.Now()
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				if do(int(next.Add(1) - 1)) {
					good.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return next.Load() - int64(first), good.Load(), time.Since(start)
}
