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
	resident  bool   // true while cached; false once spilled to backing memory
	prev      *entry // recency-list links while resident
	next      *entry
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

// Cache is one message processor's channel cache.
//
// One map covers both cached and spilled entries — an eviction to backing
// memory and the later reload are flag flips, not map writes — and entries
// dropped in the empty state are recycled through a free list, so
// steady-state channel traffic allocates nothing.
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
	resident int              // entries held, at most capacity
	byChan   map[int32]*entry // every known channel, resident or spilled
	free     []*entry         // empty entries recycled after eviction
	// Sentinels of the circular recency lists, least recent first:
	// resident entries in the empty state, and all other resident ones.
	empties, occupied entry
	done              Completion
	Stats             Stats
}

// New builds a cache with the given number of entries (at least one).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache{
		capacity: capacity,
		byChan:   make(map[int32]*entry, capacity),
	}
	c.empties.prev, c.empties.next = &c.empties, &c.empties
	c.occupied.prev, c.occupied.next = &c.occupied, &c.occupied
	return c
}

// lookup finds or creates the entry for a channel, charging a miss when it
// must be reloaded from (or first created in) backing memory, and evicting
// on overflow. It reports whether the access missed the cache. The caller
// re-files the entry once its operation has set the entry's new state.
func (c *Cache) lookup(ch int32) (*entry, bool) {
	e, known := c.byChan[ch]
	if known && e.resident {
		c.Stats.Hits++
		return e, false
	}
	c.Stats.Misses++
	if !known {
		if n := len(c.free); n > 0 {
			e = c.free[n-1]
			c.free = c.free[:n-1]
			e.channel = ch
		} else {
			e = &entry{channel: ch}
		}
		c.byChan[ch] = e
	}
	if c.resident >= c.capacity {
		c.evictOne()
	}
	e.resident = true
	c.resident++
	return e, true
}

// file moves a resident entry to the most-recent end of the recency list
// for its current state.
func (c *Cache) file(e *entry) {
	if e.next != nil {
		e.prev.next, e.next.prev = e.next, e.prev
	}
	head := &c.occupied
	if e.state() == Empty {
		head = &c.empties
	}
	e.prev, e.next = head.prev, head
	head.prev.next = e
	head.prev = e
}

// evictOne removes the least recently used entry, preferring empty
// entries; occupied entries are written back to memory at eviction cost.
func (c *Cache) evictOne() {
	victim := c.empties.next
	victimEmpty := victim != &c.empties
	if !victimEmpty {
		victim = c.occupied.next
	}
	victim.prev.next, victim.next.prev = victim.next, victim.prev
	victim.prev, victim.next = nil, nil
	victim.resident = false
	c.resident--
	if victimEmpty {
		delete(c.byChan, victim.channel)
		victim.cellValue = 0
		victim.isCell = false
		c.free = append(c.free, victim)
	} else {
		c.Stats.Evictions++
	}
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
	e, missed := c.lookup(ch)
	defer c.file(e)
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
	e, missed := c.lookup(ch)
	defer c.file(e)
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
	e, missed := c.lookup(ch)
	defer c.file(e)
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
	e, missed := c.lookup(ch)
	defer c.file(e)
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
	if e, ok := c.byChan[ch]; ok {
		return e.state()
	}
	return Empty
}

// PendingWaiters reports how many parties are blocked on the channel.
func (c *Cache) PendingWaiters(ch int32) int {
	e, ok := c.byChan[ch]
	if !ok {
		return 0
	}
	return len(e.senders) + len(e.receivers)
}

// Resident reports the number of entries currently held in the cache.
func (c *Cache) Resident() int { return c.resident }
