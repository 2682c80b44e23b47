package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestEventQueueOrdering: the calendar queue pops in (time, seq) order and
// reports the same peekTime as a stable sort by time of the pending events
// in push (and so seq) order. Each input gives the times to push before the
// next pop, from the time of the last pop, until a quota of pushes is
// reached; the queue then drains.
func TestEventQueueOrdering(t *testing.T) {
	const w = calWidth
	inputs := []struct {
		name string
		next func(rng *rand.Rand, now int64, quota int) []int64
	}{
		// All pushed up front, with many ties to exercise seq order.
		{"ties", func(rng *rand.Rand, now int64, quota int) []int64 {
			return upfront(quota, func() int64 { return int64(rng.Intn(20)) })
		}},
		// All pushed up front, spread well past the window so most start
		// in the overflow heap and move into buckets as the window slides.
		{"spread", func(rng *rand.Rand, now int64, quota int) []int64 {
			return upfront(quota, func() int64 {
				if rng.Intn(8) == 0 {
					return 1_000_000 + int64(rng.Intn(3))
				}
				return int64(rng.Intn(6 * w))
			})
		}},
		// Pushes between pops at the clock of the last pop, as handleStep
		// schedules: mostly near, sometimes past the window.
		{"monotone", func(rng *rand.Rand, now int64, quota int) []int64 {
			var ts []int64
			for k := rng.Intn(4); k > 0; k-- {
				switch rng.Intn(4) {
				case 0:
					ts = append(ts, now+int64(rng.Intn(3*w)))
				case 1:
					ts = append(ts, now)
				default:
					ts = append(ts, now+int64(rng.Intn(16)))
				}
			}
			return ts
		}},
		// Ties on both sides of the near/overflow boundary.
		{"boundary", func(rng *rand.Rand, now int64, quota int) []int64 {
			var ts []int64
			for k := rng.Intn(4); k > 0; k-- {
				ts = append(ts, now+w+int64(rng.Intn(3))-1, now+int64(rng.Intn(2)))
			}
			return ts
		}},
	}
	for _, in := range inputs {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 50; trial++ {
			var q eventQueue
			var pending []event
			var now int64
			var seq uint64
			quota := 1 + rng.Intn(300)
			for pops := 0; ; pops++ {
				if int(seq) < quota {
					for _, at := range in.next(rng, now, quota-int(seq)) {
						e := event{time: at, seq: seq, pe: int32(seq), val: int32(at)}
						seq++
						q.push(e)
						pending = append(pending, e)
					}
				}
				sort.SliceStable(pending, func(i, j int) bool { return pending[i].time < pending[j].time })
				if q.len() != len(pending) {
					t.Fatalf("%s trial %d pop %d: len = %d, want %d", in.name, trial, pops, q.len(), len(pending))
				}
				if len(pending) == 0 {
					if int(seq) < quota {
						continue
					}
					if got := q.peekTime(); got != horizonInf {
						t.Fatalf("%s trial %d: drained peekTime = %d, want horizonInf", in.name, trial, got)
					}
					break
				}
				want := pending[0]
				if got := q.peekTime(); got != want.time {
					t.Fatalf("%s trial %d pop %d: peekTime = %d, want %d", in.name, trial, pops, got, want.time)
				}
				if got := q.pop(); got != want {
					t.Fatalf("%s trial %d pop %d: got (t=%d seq=%d), want (t=%d seq=%d)",
						in.name, trial, pops, got.time, got.seq, want.time, want.seq)
				}
				pending = pending[1:]
				now = want.time
			}
		}
	}
}

// upfront returns the whole quota of times, drawn from at.
func upfront(quota int, at func() int64) []int64 {
	ts := make([]int64, quota)
	for i := range ts {
		ts[i] = at()
	}
	return ts
}

// TestEventQueuePeekEmpty: an empty queue's horizon is "never".
func TestEventQueuePeekEmpty(t *testing.T) {
	var q eventQueue
	if got := q.peekTime(); got != horizonInf {
		t.Errorf("empty peekTime = %d, want horizonInf", got)
	}
}

// TestEventQueueSteadyStateAllocs: once the backing array has grown to its
// high-water mark, push/pop cycles allocate nothing — the array is the
// event free list.
func TestEventQueueSteadyStateAllocs(t *testing.T) {
	var q eventQueue
	for i := 0; i < 64; i++ {
		q.push(event{time: int64(i), seq: uint64(i)})
	}
	for q.len() > 0 {
		q.pop()
	}
	var seq uint64
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 32; i++ {
			seq++
			q.push(event{time: int64(i % 7), seq: seq})
		}
		for q.len() > 0 {
			q.pop()
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state push/pop allocates %v times per cycle, want 0", allocs)
	}
}
