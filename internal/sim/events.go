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

// event is one scheduled simulator occurrence, 32 bytes. The queue orders
// events by time and, among events of one time, by schedule order, which
// the calendar's bucket FIFOs keep without an order stamp in the event
// (see eventQueue); TestEventSize holds the size. Events live in the
// queue's slab: push hands out a slot and the scheduler writes the fields
// straight into it, and pop copies the minimum into an event the caller
// owns, so an event is assembled once and copied once. Scheduling
// allocates nothing once the slab has grown to the run's high-water mark:
// the slab doubles as the event free list.
type event struct {
	time int64

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

// eventQueue is a deterministic priority queue ordered by time and then by
// schedule order: a calendar queue (Brown, CACM 31(10), 1988) of calWidth
// one-cycle buckets covering the window [base, base+calWidth), with a
// 4-ary heap for the events scheduled beyond it. base is the time of the
// last pop, so it never passes a pending event.
//
// Each bucket is a FIFO of slots in one growing slab of events, linked
// through a parallel array with a free list, and a bitmap of non-empty
// buckets finds the earliest one in a few word tests, so push and pop are
// O(1) for in-window events and allocate nothing once the slab has reached
// the run's high-water mark. Keeping the links apart leaves each slot one
// 32-byte event, which never straddles a cache line.
//
// The order is exact. A bucket holds only events of one time, because the
// window spans calWidth cycles, one bucket each. Within a bucket FIFO
// order is schedule order: a direct push appends to its bucket, an
// overflow event moves into its bucket as soon as the window first covers
// its time, before any direct push can land there, and the heap hands
// such events over in time and then schedule order, which its own order
// stamp records.
type eventQueue struct {
	base int64
	n    int // events queued, in buckets and heap

	// Bucket b holds the events at the window time congruent to b modulo
	// calWidth, as a list of slot indices from head[b] to tail[b]. Slot 0
	// is never used, so index 0 ends a list and the zero queue is empty.
	head, tail [calWidth]int32
	bits       [calWords]uint64 // bit b: bucket b is non-empty
	slab       []event          // slab[i] is slot i's event
	next       []int32          // next[i] follows slot i in its list
	free       int32            // first free slot, 0 when none

	far eventHeap // events at base+calWidth or later
}

func (q *eventQueue) len() int { return q.n }

// horizonInf is the batching horizon of an empty queue: no scheduled event
// can ever preempt a straight-line run.
const horizonInf = int64(math.MaxInt64)

// push queues an event of the given kind at time t, after every event
// already queued at t, and returns it for the caller to fill in the rest
// of the payload its kind carries; the other payload fields are zero. The
// pointer is the event's place in the queue, valid until the next push or
// pop. Nothing may be pushed before the last pop unless the queue has
// drained.
func (q *eventQueue) push(t int64, kind eventKind, pe, ctx int32) *event {
	if t < q.base {
		if q.n != 0 {
			panic("sim: event scheduled before the current time")
		}
		q.base = t
	}
	q.n++
	var e *event
	if t-q.base >= calWidth {
		e = q.far.push(t)
	} else {
		e = q.insert(t)
	}
	e.time, e.kind, e.pe, e.ctx = t, kind, pe, ctx
	e.src, e.ch, e.val, e.op, e.then = 0, 0, 0, opSend, thenNone
	return e
}

// insert appends a slot to the bucket of time t, which must lie in the
// window, and returns the slot's event, left as it was, for the caller to
// write. The pointer is valid until the next insert.
func (q *eventQueue) insert(t int64) *event {
	i := q.free
	if i != 0 {
		q.free = q.next[i]
		q.next[i] = 0
	} else {
		if len(q.slab) == 0 {
			// Slot 0 is the list terminator.
			q.slab, q.next = append(q.slab, event{}), append(q.next, 0)
		}
		i = int32(len(q.slab))
		q.slab, q.next = append(q.slab, event{}), append(q.next, 0)
	}
	b := int(t) & calMask
	if q.head[b] == 0 {
		q.head[b] = i
		q.bits[b>>6] |= 1 << (b & 63)
	} else {
		q.next[q.tail[b]] = i
	}
	q.tail[b] = i
	return &q.slab[i]
}

// pop removes the minimum event and copies it into e.
func (q *eventQueue) pop(e *event) {
	q.n--
	b := q.scan(int(q.base))
	if b < 0 {
		q.far.pop(e)
		q.advance(e.time)
		return
	}
	i := q.head[b]
	s := &q.slab[i]
	// Field by field: the event was written field by field, often just
	// now, and a wide copy's loads would each span several of those
	// stores, which the processor cannot forward from its store buffer.
	e.time, e.pe, e.ctx, e.src, e.ch, e.val = s.time, s.pe, s.ctx, s.src, s.ch, s.val
	e.kind, e.op, e.then = s.kind, s.op, s.then
	next := q.next[i]
	q.head[b] = next
	if next == 0 {
		q.bits[b>>6] &^= 1 << (b & 63)
	}
	q.next[i] = q.free
	q.free = i
	if e.time != q.base {
		q.advance(e.time)
	}
}

// peekTime reports the earliest scheduled time without popping, or
// horizonInf when the queue is empty. This is the next-event horizon the
// step-batching loop runs against.
func (q *eventQueue) peekTime() int64 {
	if b := q.scan(int(q.base)); b >= 0 {
		// Bucket b holds the one window time congruent to it.
		return q.base + int64((b-int(q.base))&calMask)
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
	for len(q.far.a) > 0 && q.far.a[0].ev.time-t < calWidth {
		q.far.pop(q.insert(q.far.a[0].ev.time))
	}
}

// farEvent is an event waiting beyond the calendar's window, stamped with
// its place in the heap's push order.
type farEvent struct {
	ev  event
	seq uint64
}

// eventHeap is a min-heap ordered by time and then by push order, laid
// out as an index-based 4-ary heap over a flat array; the calendar keeps
// it for the events beyond its window. Events are pushed in schedule
// order, so push order among events of one time is schedule order.
type eventHeap struct {
	a   []farEvent
	seq uint64 // order stamp of the next push
}

func (h *eventHeap) peekTime() int64 {
	if len(h.a) == 0 {
		return horizonInf
	}
	return h.a[0].ev.time
}

// earlier reports whether an entry at time t stamped seq goes before f:
// seq breaks ties in push order, which is what makes the simulation
// deterministic.
func earlier(t int64, seq uint64, f *farEvent) bool {
	if t != f.ev.time {
		return t < f.ev.time
	}
	return seq < f.seq
}

// push makes room for an event at time t, moving down a level each parent
// it goes before, and returns the event's place for the caller to fill
// in; the pointer is valid until the next push or pop.
func (h *eventHeap) push(t int64) *event {
	seq := h.seq
	h.seq++
	h.a = append(h.a, farEvent{})
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !earlier(t, seq, &h.a[p]) {
			break
		}
		h.a[i] = h.a[p]
		i = p
	}
	h.a[i].ev.time, h.a[i].seq = t, seq
	return &h.a[i].ev
}

// pop removes the minimum event and copies it into e, which must not
// point into the heap.
func (h *eventHeap) pop(e *event) {
	*e = h.a[0].ev
	n := len(h.a) - 1
	last := h.a[n]
	h.a = h.a[:n]
	if n == 0 {
		return
	}
	// Move the least child up into the hole left at the root until the
	// last entry goes before every child of the hole.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		end := min(first+4, n)
		for c := first + 1; c < end; c++ {
			if earlier(h.a[c].ev.time, h.a[c].seq, &h.a[least]) {
				least = c
			}
		}
		if earlier(last.ev.time, last.seq, &h.a[least]) {
			break
		}
		h.a[i] = h.a[least]
		i = least
	}
	h.a[i] = last
}
