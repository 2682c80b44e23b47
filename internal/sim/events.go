package sim

import (
	"math"
	"math/bits"
)

// eventKind discriminates the simulator's event types.
type eventKind uint8

const (
	// evStep: a processing element executes its running context's next
	// instruction (and, under straight-line batching, every following
	// instruction up to the queue's next-event horizon).
	evStep eventKind = iota
	// evChanReq: a channel operation request arrives at its home message
	// processor.
	evChanReq
	// evRecvDone: a rendezvous value arrives at a blocked receiver.
	evRecvDone
	// evSendDone: a rendezvous acknowledgement arrives at a blocked
	// sender.
	evSendDone
	// evWake: a context's real-time wait expires.
	evWake
	// evKick: a processing element should try to dispatch a context.
	evKick
)

type chanOp uint8

const (
	opSend chanOp = iota
	opRecv
)

// followUp is an event fused onto the one scheduled just before it at the
// same time (see System.runLoop): it runs right after that event's
// handler instead of making its own trip through the queue.
type followUp uint8

const (
	// thenNone: nothing is fused onto the event.
	thenNone followUp = iota
	// thenKick: kick processing element src.
	thenKick
	// thenSendDone: deliver the rendezvous acknowledgement to context
	// sctx on processing element src.
	thenSendDone
)

// event is one scheduled simulator occurrence. Events are plain values:
// they live inline in the queue's backing array and are copied in and out
// of it, so scheduling allocates nothing once the array has grown to the
// run's high-water mark — the array doubles as the event free list.
type event struct {
	time int64
	seq  uint64

	pe  int32 // processing element concerned (evStep, evKick, deliveries)
	ctx int32 // context id
	// src is the requesting processing element of an evChanReq, and the
	// processing element of the follow-up fused onto the event.
	src int32

	// Channel request payload. A delivery's channel field is free, so an
	// evRecvDone carrying a thenSendDone holds the sender's context there.
	ch  int32
	val int32

	kind eventKind
	op   chanOp
	then followUp
}

// sctx is the sender context of a fused thenSendDone.
func (e *event) sctx() int32 { return e.ch }

// calWidth is the calendar's window in cycles: one bucket per cycle. Every
// schedule delta measured on the exact-gated programs at 1–8 PEs is under
// 64 cycles, and at 64 PEs 79% are under 64 and 95% under 512, so a
// 256-cycle window holds nearly every event in a bucket while the bitmap
// of non-empty buckets stays four words.
const (
	calWidth = 256
	calMask  = calWidth - 1
	calWords = calWidth / 64
)

// eventQueue is a deterministic priority queue ordered by (time, seq): a
// calendar queue (Brown, CACM 31(10), 1988) of calWidth one-cycle buckets
// covering the window [base, base+calWidth), with a 4-ary heap for the
// events scheduled beyond it. base is the time of the last pop, so it
// never passes a pending event.
//
// Each bucket is an intrusive FIFO threaded through one growing slab of
// slots with a free list, and a bitmap of non-empty buckets finds the
// earliest one in a few word tests, so push and pop are O(1) for in-window
// events and allocate nothing once the slab has reached the run's
// high-water mark.
//
// The order is exact. A bucket holds only events of one time, because the
// window spans calWidth cycles, one bucket each. Within a bucket FIFO
// order is seq order: the simulator assigns seq in push order, an overflow
// event moves into its bucket as soon as the window first covers its
// time, before any direct push can land there, and the heap hands such
// events over in (time, seq) order.
type eventQueue struct {
	base int64
	n    int // events queued, in buckets and heap

	// Bucket b holds the events at the window time congruent to b modulo
	// calWidth, as a list of slot indices from head[b] to tail[b]. Slot 0
	// is never used, so index 0 ends a list and the zero queue is empty.
	head, tail [calWidth]int32
	bits       [calWords]uint64 // bit b: bucket b is non-empty
	slab       []slot
	free       int32 // first free slot, 0 when none

	far eventHeap // events at base+calWidth or later
}

type slot struct {
	ev   event
	next int32
}

func (q *eventQueue) len() int { return q.n }

// horizonInf is the batching horizon of an empty queue: no scheduled event
// can ever preempt a straight-line run.
const horizonInf = int64(math.MaxInt64)

// push inserts e. Events must be pushed in seq order, and no earlier than
// the last pop unless the queue has drained.
func (q *eventQueue) push(e event) {
	if e.time < q.base {
		if q.n != 0 {
			panic("sim: event scheduled before the current time")
		}
		q.base = e.time
	}
	q.n++
	q.insert(e)
}

// insert files e in its bucket, or in the heap when it lies beyond the
// window.
func (q *eventQueue) insert(e event) {
	if e.time-q.base >= calWidth {
		q.far.push(e)
		return
	}
	i := q.free
	if i != 0 {
		q.free = q.slab[i].next
		q.slab[i] = slot{ev: e}
	} else {
		if len(q.slab) == 0 {
			q.slab = append(q.slab, slot{}) // slot 0 is the list terminator
		}
		i = int32(len(q.slab))
		q.slab = append(q.slab, slot{ev: e})
	}
	b := int(e.time) & calMask
	if q.head[b] == 0 {
		q.head[b] = i
		q.bits[b>>6] |= 1 << (b & 63)
	} else {
		q.slab[q.tail[b]].next = i
	}
	q.tail[b] = i
}

// pop removes and returns the minimum event.
func (q *eventQueue) pop() event {
	q.n--
	b := q.scan(int(q.base))
	if b < 0 {
		e := q.far.pop()
		q.advance(e.time)
		return e
	}
	i := q.head[b]
	s := &q.slab[i]
	e := s.ev
	q.head[b] = s.next
	if s.next == 0 {
		q.bits[b>>6] &^= 1 << (b & 63)
	}
	s.next = q.free
	q.free = i
	if e.time != q.base {
		q.advance(e.time)
	}
	return e
}

// peekTime reports the earliest scheduled time without popping, or
// horizonInf when the queue is empty. This is the next-event horizon the
// step-batching loop runs against.
func (q *eventQueue) peekTime() int64 {
	if b := q.scan(int(q.base)); b >= 0 {
		return q.slab[q.head[b]].ev.time
	}
	return q.far.peekTime()
}

// scan returns the first non-empty bucket at or after bucket from in
// circular order, which is time order when from is the window's start, or
// -1 when every bucket is empty.
func (q *eventQueue) scan(from int) int {
	from &= calMask
	w := from >> 6
	if m := q.bits[w] >> (from & 63); m != 0 {
		return from + bits.TrailingZeros64(m)
	}
	// The remaining words in circular order, ending with the low bits of
	// word w itself (its bits at or above from are already known clear).
	for k := 1; k <= calWords; k++ {
		ww := (w + k) & (calWords - 1)
		if m := q.bits[ww]; m != 0 {
			return ww<<6 + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// advance moves the window start forward to t and files every overflow
// event the window now covers into its bucket.
func (q *eventQueue) advance(t int64) {
	q.base = t
	for len(q.far.a) > 0 && q.far.a[0].time-t < calWidth {
		q.insert(q.far.pop())
	}
}

// eventHeap is a min-heap ordered by (time, seq), laid out as an
// index-based 4-ary heap over a flat event array; the calendar keeps it
// for the events beyond its window.
type eventHeap struct {
	a []event
}

func (h *eventHeap) peekTime() int64 {
	if len(h.a) == 0 {
		return horizonInf
	}
	return h.a[0].time
}

// less orders events by (time, seq); seq breaks ties in schedule order,
// which is what makes the simulation deterministic.
func (h *eventHeap) less(i, j int) bool {
	if h.a[i].time != h.a[j].time {
		return h.a[i].time < h.a[j].time
	}
	return h.a[i].seq < h.a[j].seq
}

// push inserts e, sifting it up toward the root.
func (h *eventHeap) push(e event) {
	h.a = append(h.a, e)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !h.less(i, p) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	top := h.a[0]
	n := len(h.a) - 1
	h.a[0] = h.a[n]
	h.a = h.a[:n]
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		last := min(first+4, n)
		for c := first + 1; c < last; c++ {
			if h.less(c, least) {
				least = c
			}
		}
		if !h.less(least, i) {
			break
		}
		h.a[i], h.a[least] = h.a[least], h.a[i]
		i = least
	}
	return top
}
