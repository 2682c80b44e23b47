package sim

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// TestEventQueueOrdering: the calendar queue pops the pending events in the
// order of a stable sort by time of their push order, and reports the same
// peekTime. Each input gives the times to push before the next pop, from
// the time of the last pop, until a quota of pushes is reached; the queue
// then drains. Each event carries its push index in pe, so a pop in the
// wrong order among equal times shows.
func TestEventQueueOrdering(t *testing.T) {
	const w = calWidth
	inputs := []struct {
		name string
		next func(rng *rand.Rand, now int64, quota int) []int64
	}{
		// All pushed up front, with many ties to exercise schedule order.
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
		// Runs of equal far times interleaved with near ones, so several
		// events of one time wait in the overflow heap together and must
		// enter their bucket in schedule order.
		{"far-ties", func(rng *rand.Rand, now int64, quota int) []int64 {
			var ts []int64
			far := now + w + int64(rng.Intn(2*w))
			for k := 2 + rng.Intn(6); k > 0; k-- {
				ts = append(ts, far, now+int64(rng.Intn(8)))
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
			pushed := 0
			quota := 1 + rng.Intn(300)
			for pops := 0; ; pops++ {
				if pushed < quota {
					for _, at := range in.next(rng, now, quota-pushed) {
						e := q.push(at, evStep, int32(pushed), int32(at))
						e.val = int32(pushed) * 3
						pending = append(pending, *e)
						pushed++
					}
				}
				sort.SliceStable(pending, func(i, j int) bool { return pending[i].time < pending[j].time })
				if q.len() != len(pending) {
					t.Fatalf("%s trial %d pop %d: len = %d, want %d", in.name, trial, pops, q.len(), len(pending))
				}
				if len(pending) == 0 {
					if pushed < quota {
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
				var got event
				if q.pop(&got); got != want {
					t.Fatalf("%s trial %d pop %d: got (t=%d push %d), want (t=%d push %d)",
						in.name, trial, pops, got.time, got.pe, want.time, want.pe)
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

// TestEventQueueSteadyStateAllocs: once the slab has grown to its
// high-water mark, push/pop cycles allocate nothing — the slab is the
// event free list.
func TestEventQueueSteadyStateAllocs(t *testing.T) {
	var (
		q eventQueue
		e event
	)
	for i := 0; i < 64; i++ {
		q.push(int64(i), evKick, int32(i), 0)
	}
	for q.len() > 0 {
		q.pop(&e)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 32; i++ {
			q.push(e.time+int64(i%7), evStep, int32(i), 0).val = int32(i)
		}
		for q.len() > 0 {
			q.pop(&e)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state push/pop allocates %v times per cycle, want 0", allocs)
	}
}

// TestEventSize: an event fills exactly half a cache line. A new field
// must find room in the padding or justify widening every queue slot.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 32 {
		t.Errorf("event is %d bytes, want 32", got)
	}
}

// TestEventQueuePushClearsPayload: an event pushed into a reused bucket
// slot, or into the overflow heap, carries only the payload written into
// it, not that of the event last held there.
func TestEventQueuePushClearsPayload(t *testing.T) {
	var (
		q   eventQueue
		got event
	)
	for _, d := range []int64{1, 2 * calWidth} {
		e := q.push(got.time+d, evChanReq, 1, 2)
		e.src, e.ch, e.val, e.op, e.then = 3, 4, 5, opRecv, thenSendDone
		q.pop(&got)
		want := event{time: got.time + d, kind: evKick, pe: 6, ctx: 7}
		q.push(want.time, evKick, 6, 7)
		if q.pop(&got); got != want {
			t.Errorf("delta %d: popped %+v, want %+v", d, got, want)
		}
	}
}
