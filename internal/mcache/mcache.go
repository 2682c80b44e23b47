// Package mcache implements the dedicated message-handling hardware of
// §5.5: a message processor's channel cache. Each cache entry tracks the
// rendezvous state of one channel — empty, sender waiting (value present),
// or receiver waiting — and the send, receive and fetch-and-φ operations
// drive the state transitions of Tables 5.3, 5.4 and 6.7.
//
// The cache has a finite number of entries. Entries holding a blocked party
// are evicted to backing memory (at a cost) when the cache overflows, and
// reloaded on the next access; entries in the empty state are dropped for
// free. The finite per-processor cache is one of the mechanisms behind the
// multiprocessor's super-linear speed-up: aggregate cache capacity grows
// with the number of processing elements, so channel operations miss less.
package mcache

import "fmt"

// ContextRef identifies a blocked context: the processing element hosting
// it and its context identifier.
type ContextRef struct {
	PE  int
	Ctx int
}

// State is the externally visible state of a channel entry.
type State int

const (
	// Empty: no operation pending on the channel.
	Empty State = iota
	// SenderWait: one or more senders are blocked with their values.
	SenderWait
	// ReceiverWait: one or more receivers are blocked.
	ReceiverWait
	// ValueCell: the entry is used as a fetch-and-φ synchronization word
	// rather than a rendezvous channel.
	ValueCell
)

func (s State) String() string {
	switch s {
	case Empty:
		return "empty"
	case SenderWait:
		return "sender-wait"
	case ReceiverWait:
		return "receiver-wait"
	case ValueCell:
		return "value-cell"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

type waitingSend struct {
	val    int32
	sender ContextRef
}

type entry struct {
	channel   int32
	senders   []waitingSend // FIFO of blocked senders with their values
	receivers []ContextRef  // FIFO of blocked receivers
	cellValue int32         // fetch-and-φ storage
	isCell    bool
	resident  bool // true while cached; false once spilled to backing memory
	// Recency-list links while resident, the free-list link while free:
	// indices into the entry slab, -1 at the ends.
	prev, next int32
}

func (e *entry) state() State {
	switch {
	case e.isCell:
		return ValueCell
	case len(e.senders) > 0:
		return SenderWait
	case len(e.receivers) > 0:
		return ReceiverWait
	default:
		return Empty
	}
}

// Stats counts cache behaviour for the Chapter 6 statistics tables.
type Stats struct {
	Sends      int64
	Receives   int64
	FetchPhis  int64
	Hits       int64
	Misses     int64 // entry reloaded from backing memory
	Evictions  int64 // occupied entry written back to memory
	Rendezvous int64 // completed send/receive pairs
}

// recency is one intrusive recency list: the slab indices of its least
// and most recently used entries, -1 when the list is empty.
type recency struct{ head, tail int32 }

// Cache is one message processor's channel cache.
//
// Channel identifiers are dense — the kernel allocates them counting up
// from 1 — so a table indexed by channel id maps each channel to its
// entry, and lookup is two array loads. A cache built with NewStrided
// serves only the channels homed on it, ids congruent modulo the stride,
// and indexes the table by id divided by the stride; the table grows to
// the largest id seen. Entries live in one slab: resident ones, and
// occupied ones spilled to backing memory. An eviction and the later
// reload are flag flips; an entry dropped in the empty state leaves the
// table and goes on a free list, waiter queues and all, so steady-state
// channel traffic allocates nothing and the slab stays the size of the
// cache plus its spilled entries.
//
// The victim on overflow is the least recently used empty entry, else the
// least recently used occupied one. Resident entries are kept on two
// intrusive recency lists, one per class, and every operation re-files its
// entry at the most-recent end of the list for the state it leaves the
// entry in. Only an operation changes an entry's state, and it also makes
// the entry the most recently used, so each list stays in recency order
// and the victim is a list head: O(1) where a scan was O(capacity).
type Cache struct {
	capacity int
	resident int   // entries held, at most capacity
	stride   int32 // channel ch maps to table[ch/stride]
	// table holds 1 + the slab index of each channel's entry, 0 for a
	// channel without one.
	table []int32
	slab  []entry
	free  int32 // first free slab entry, -1 when none
	// Resident entries in the empty state, and all other resident ones.
	empties, occupied recency
	done              Completion
	Stats             Stats
}

// New builds a cache with the given number of entries (at least one).
// Channel identifiers are non-negative and, since the cache indexes a
// table by them, should be dense.
func New(capacity int) *Cache { return NewStrided(capacity, 1) }

// NewStrided builds a cache with the given number of entries for a message
// processor that is home to every stride-th channel: all the channels it
// sees are congruent modulo stride, as in a machine of stride processing
// elements that homes channel ch on element ch mod stride.
func NewStrided(capacity, stride int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		stride:   int32(max(stride, 1)),
		free:     -1,
		empties:  recency{-1, -1},
		occupied: recency{-1, -1},
	}
}

// find returns the slab index of a channel's entry, or -1 when it has
// none.
func (c *Cache) find(ch int32) int32 {
	if t := ch / c.stride; ch >= 0 && int(t) < len(c.table) {
		return c.table[t] - 1
	}
	return -1
}

// lookup finds or creates the entry for a channel, charging a miss when it
// must be reloaded from (or first created in) backing memory, and evicting
// on overflow. It reports the entry's slab index and whether the access
// missed the cache. A hit takes the entry off its recency list: the caller
// re-files it once its operation has set the entry's new state.
func (c *Cache) lookup(ch int32) (int32, bool, error) {
	if ch < 0 {
		return 0, false, fmt.Errorf("mcache: invalid channel %d", ch)
	}
	t := ch / c.stride
	if int(t) >= len(c.table) {
		n := max(int(t)+1, 2*len(c.table), 16)
		c.table = append(c.table, make([]int32, n-len(c.table))...)
	}
	i := c.table[t] - 1
	if i >= 0 && c.slab[i].resident {
		c.Stats.Hits++
		c.unlink(c.list(&c.slab[i]), i)
		return i, false, nil
	}
	c.Stats.Misses++
	if i < 0 {
		if i = c.free; i >= 0 {
			c.free = c.slab[i].next
		} else {
			if c.slab == nil {
				// Most caches serve a few dozen channels at most;
				// starting at 16 entries spares the first doublings.
				c.slab = make([]entry, 0, min(c.capacity, 16))
			}
			i = int32(len(c.slab))
			c.slab = append(c.slab, entry{})
		}
		c.slab[i].channel = ch
		c.table[t] = i + 1
	}
	if c.resident >= c.capacity {
		c.evictOne()
	}
	c.slab[i].resident = true
	c.resident++
	return i, true, nil
}

// list returns the recency list for a resident entry's state.
func (c *Cache) list(e *entry) *recency {
	if e.state() == Empty {
		return &c.empties
	}
	return &c.occupied
}

func (c *Cache) unlink(l *recency, i int32) {
	e := &c.slab[i]
	if e.prev >= 0 {
		c.slab[e.prev].next = e.next
	} else {
		l.head = e.next
	}
	if e.next >= 0 {
		c.slab[e.next].prev = e.prev
	} else {
		l.tail = e.prev
	}
}

// file puts a resident entry at the most-recent end of the recency list
// for its current state.
func (c *Cache) file(i int32) {
	e := &c.slab[i]
	l := c.list(e)
	e.prev, e.next = l.tail, -1
	if l.tail >= 0 {
		c.slab[l.tail].next = i
	} else {
		l.head = i
	}
	l.tail = i
}

// evictOne removes the least recently used entry, preferring empty
// entries, which are dropped; occupied entries are written back to memory
// at eviction cost.
func (c *Cache) evictOne() {
	l := &c.empties
	if l.head < 0 {
		l = &c.occupied
	}
	i := l.head
	c.unlink(l, i)
	c.resident--
	e := &c.slab[i]
	e.resident = false
	if l == &c.occupied {
		c.Stats.Evictions++
		return
	}
	// An empty entry is no cell and has no waiters: it is already in its
	// initial state but for its channel.
	c.table[e.channel/c.stride] = 0
	e.next = c.free
	c.free = i
}

// Completion describes a finished rendezvous: the two parties to unblock
// and the transferred value. The pointer returned by Send and Recv refers
// to per-cache scratch storage and is valid only until the next operation
// on the same cache.
type Completion struct {
	Value    int32
	Sender   ContextRef
	Receiver ContextRef
}

// Send performs the message-cache send transition: if a receiver is
// waiting, the rendezvous completes; otherwise the sender blocks with its
// value. The boolean reports whether the access missed the cache.
func (c *Cache) Send(ch, val int32, sender ContextRef) (done *Completion, missed bool, err error) {
	c.Stats.Sends++
	i, missed, err := c.lookup(ch)
	if err != nil {
		return nil, false, err
	}
	defer c.file(i)
	e := &c.slab[i]
	if e.isCell {
		return nil, missed, fmt.Errorf("mcache: channel %d is a fetch-and-φ cell", ch)
	}
	if n := len(e.receivers); n > 0 {
		r := e.receivers[0]
		copy(e.receivers, e.receivers[1:])
		e.receivers = e.receivers[:n-1]
		c.Stats.Rendezvous++
		c.done = Completion{Value: val, Sender: sender, Receiver: r}
		return &c.done, missed, nil
	}
	e.senders = append(e.senders, waitingSend{val: val, sender: sender})
	return nil, missed, nil
}

// Recv performs the message-cache receive transition: if a sender is
// waiting, the rendezvous completes; otherwise the receiver blocks.
func (c *Cache) Recv(ch int32, receiver ContextRef) (done *Completion, missed bool, err error) {
	c.Stats.Receives++
	i, missed, err := c.lookup(ch)
	if err != nil {
		return nil, false, err
	}
	defer c.file(i)
	e := &c.slab[i]
	if e.isCell {
		return nil, missed, fmt.Errorf("mcache: channel %d is a fetch-and-φ cell", ch)
	}
	if n := len(e.senders); n > 0 {
		s := e.senders[0]
		copy(e.senders, e.senders[1:])
		e.senders = e.senders[:n-1]
		c.Stats.Rendezvous++
		c.done = Completion{Value: s.val, Sender: s.sender, Receiver: receiver}
		return &c.done, missed, nil
	}
	e.receivers = append(e.receivers, receiver)
	return nil, missed, nil
}

// FetchAndAdd atomically adds delta to the channel's synchronization word
// and returns the previous value (the fetch-and-φ1 operation).
func (c *Cache) FetchAndAdd(ch, delta int32) (old int32, missed bool, err error) {
	c.Stats.FetchPhis++
	i, missed, err := c.lookup(ch)
	if err != nil {
		return 0, false, err
	}
	defer c.file(i)
	e := &c.slab[i]
	if !e.isCell && e.state() != Empty {
		return 0, missed, fmt.Errorf("mcache: channel %d is in rendezvous use (%v)", ch, e.state())
	}
	e.isCell = true
	old = e.cellValue
	e.cellValue += delta
	return old, missed, nil
}

// FetchAndStore atomically replaces the channel's synchronization word and
// returns the previous value (the fetch-and-φ2 operation).
func (c *Cache) FetchAndStore(ch, val int32) (old int32, missed bool, err error) {
	c.Stats.FetchPhis++
	i, missed, err := c.lookup(ch)
	if err != nil {
		return 0, false, err
	}
	defer c.file(i)
	e := &c.slab[i]
	if !e.isCell && e.state() != Empty {
		return 0, missed, fmt.Errorf("mcache: channel %d is in rendezvous use (%v)", ch, e.state())
	}
	e.isCell = true
	old = e.cellValue
	e.cellValue = val
	return old, missed, nil
}

// ChannelState reports the externally visible state of a channel without
// disturbing cache statistics or recency (a debugging/verification probe).
func (c *Cache) ChannelState(ch int32) State {
	if i := c.find(ch); i >= 0 {
		return c.slab[i].state()
	}
	return Empty
}

// PendingWaiters reports how many parties are blocked on the channel.
func (c *Cache) PendingWaiters(ch int32) int {
	i := c.find(ch)
	if i < 0 {
		return 0
	}
	return len(c.slab[i].senders) + len(c.slab[i].receivers)
}

// Resident reports the number of entries currently held in the cache.
func (c *Cache) Resident() int { return c.resident }
