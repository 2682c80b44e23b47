package mcache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

var (
	ctxA = ContextRef{PE: 0, Ctx: 1}
	ctxB = ContextRef{PE: 1, Ctx: 2}
)

// TestStateTransitionTable walks the send/receive state transition table of
// Table 5.4: empty --send--> sender-wait --recv--> empty (rendezvous), and
// symmetrically for receive-first.
func TestStateTransitionTable(t *testing.T) {
	c := New(8)

	// Send first.
	done, _, err := c.Send(1, 42, ctxA)
	if err != nil || done != nil {
		t.Fatalf("send on empty: %v, %v", done, err)
	}
	if got := c.ChannelState(1); got != SenderWait {
		t.Fatalf("state = %v, want sender-wait", got)
	}
	done, _, err = c.Recv(1, ctxB)
	if err != nil || done == nil {
		t.Fatalf("recv on sender-wait: %v, %v", done, err)
	}
	if done.Value != 42 || done.Sender != ctxA || done.Receiver != ctxB {
		t.Errorf("completion = %+v", done)
	}
	if got := c.ChannelState(1); got != Empty {
		t.Errorf("state after rendezvous = %v", got)
	}

	// Receive first.
	done, _, err = c.Recv(2, ctxB)
	if err != nil || done != nil {
		t.Fatalf("recv on empty: %v, %v", done, err)
	}
	if got := c.ChannelState(2); got != ReceiverWait {
		t.Fatalf("state = %v", got)
	}
	done, _, err = c.Send(2, 7, ctxA)
	if err != nil || done == nil {
		t.Fatalf("send on receiver-wait: %v, %v", done, err)
	}
	if done.Value != 7 {
		t.Errorf("value = %d", done.Value)
	}
	if c.Stats.Rendezvous != 2 {
		t.Errorf("rendezvous = %d", c.Stats.Rendezvous)
	}
}

// TestFIFOOrdering checks that multiple blocked senders complete in order.
func TestFIFOOrdering(t *testing.T) {
	c := New(8)
	for i := int32(0); i < 3; i++ {
		if done, _, err := c.Send(5, 100+i, ContextRef{Ctx: int(i)}); err != nil || done != nil {
			t.Fatal("send should block")
		}
	}
	if got := c.PendingWaiters(5); got != 3 {
		t.Fatalf("waiters = %d", got)
	}
	for i := int32(0); i < 3; i++ {
		done, _, err := c.Recv(5, ctxB)
		if err != nil || done == nil {
			t.Fatal("recv should complete")
		}
		if done.Value != 100+i || done.Sender.Ctx != int(i) {
			t.Errorf("completion %d = %+v", i, done)
		}
	}
}

// TestFetchAndPhi checks the fetch-and-φ1 (add) and fetch-and-φ2 (store)
// operations of Table 5.3.
func TestFetchAndPhi(t *testing.T) {
	c := New(8)
	old, _, err := c.FetchAndAdd(9, 5)
	if err != nil || old != 0 {
		t.Fatalf("first fetch-and-add = %d, %v", old, err)
	}
	old, _, err = c.FetchAndAdd(9, 3)
	if err != nil || old != 5 {
		t.Fatalf("second fetch-and-add = %d, %v", old, err)
	}
	old, _, err = c.FetchAndStore(9, 100)
	if err != nil || old != 8 {
		t.Fatalf("fetch-and-store = %d, %v", old, err)
	}
	if got := c.ChannelState(9); got != ValueCell {
		t.Errorf("state = %v", got)
	}

	// Mixing rendezvous and cell use on one channel is an error.
	if _, _, err := c.Send(9, 1, ctxA); err == nil {
		t.Error("send on cell accepted")
	}
	if _, _, err := c.Recv(9, ctxA); err == nil {
		t.Error("recv on cell accepted")
	}
	if done, _, err := c.Send(11, 1, ctxA); err != nil || done != nil {
		t.Fatal("send setup failed")
	}
	if _, _, err := c.FetchAndAdd(11, 1); err == nil {
		t.Error("fetch-and-add on rendezvous channel accepted")
	}
	if _, _, err := c.FetchAndStore(11, 1); err == nil {
		t.Error("fetch-and-store on rendezvous channel accepted")
	}
}

// TestEvictionAndReload fills the cache beyond capacity with blocked
// senders and checks that evicted entries are written back and transparently
// reloaded, completing every rendezvous.
func TestEvictionAndReload(t *testing.T) {
	c := New(4)
	const channels = 20
	for ch := int32(0); ch < channels; ch++ {
		if done, _, err := c.Send(ch, ch*10, ContextRef{Ctx: int(ch)}); err != nil || done != nil {
			t.Fatal("send should block")
		}
	}
	if c.Resident() > 4 {
		t.Fatalf("resident = %d, capacity 4", c.Resident())
	}
	if c.Stats.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	for ch := int32(0); ch < channels; ch++ {
		done, _, err := c.Recv(ch, ctxB)
		if err != nil || done == nil {
			t.Fatalf("recv ch %d: %v, %v", ch, done, err)
		}
		if done.Value != ch*10 {
			t.Errorf("ch %d value = %d", ch, done.Value)
		}
	}
	if c.Stats.Rendezvous != channels {
		t.Errorf("rendezvous = %d", c.Stats.Rendezvous)
	}
}

// TestEvictionPrefersEmpty checks that free entries are evicted before
// occupied ones, so waiters stay cached as long as possible.
func TestEvictionPrefersEmpty(t *testing.T) {
	c := New(2)
	// ch 0 empty after a completed rendezvous; ch 1 occupied.
	c.Recv(0, ctxB)
	c.Send(0, 1, ctxA)
	c.Send(1, 5, ctxA)
	evBefore := c.Stats.Evictions
	// Touching ch 2 must evict the empty ch 0, not the occupied ch 1.
	c.Send(2, 9, ctxA)
	if c.Stats.Evictions != evBefore {
		t.Errorf("evictions = %d, want %d (empty entry dropped for free)", c.Stats.Evictions, evBefore)
	}
	if got := c.ChannelState(1); got != SenderWait {
		t.Errorf("occupied entry lost: %v", got)
	}
}

// TestNoTokenLoss is the core safety property: under random interleavings
// of sends and receives on random channels, every sent value is delivered
// exactly once, in per-channel FIFO order, regardless of cache pressure.
func TestNoTokenLoss(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(1 + rng.Intn(4)) // tiny caches to force eviction traffic
		type sent struct{ val int32 }
		pendingSends := map[int32][]int32{} // channel -> values in flight
		pendingRecvs := map[int32]int{}
		delivered := map[int32][]int32{}
		var nextVal int32
		for op := 0; op < 300; op++ {
			ch := int32(rng.Intn(6))
			if rng.Intn(2) == 0 {
				nextVal++
				done, _, err := c.Send(ch, nextVal, ctxA)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if done != nil {
					if pendingRecvs[ch] == 0 {
						t.Fatalf("seed %d: completion without pending recv", seed)
					}
					pendingRecvs[ch]--
					delivered[ch] = append(delivered[ch], done.Value)
				} else {
					pendingSends[ch] = append(pendingSends[ch], nextVal)
				}
			} else {
				done, _, err := c.Recv(ch, ctxB)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if done != nil {
					want := pendingSends[ch][0]
					pendingSends[ch] = pendingSends[ch][1:]
					if done.Value != want {
						t.Fatalf("seed %d: ch %d delivered %d, want %d (FIFO)", seed, ch, done.Value, want)
					}
					delivered[ch] = append(delivered[ch], done.Value)
				} else {
					pendingRecvs[ch]++
				}
			}
		}
		// Drain all pending sends.
		for ch, vals := range pendingSends {
			for _, want := range vals {
				done, _, err := c.Recv(ch, ctxB)
				if err != nil || done == nil {
					t.Fatalf("seed %d: drain ch %d failed", seed, ch)
				}
				if done.Value != want {
					t.Fatalf("seed %d: drain ch %d got %d want %d", seed, ch, done.Value, want)
				}
			}
		}
		_ = sent{}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Empty: "empty", SenderWait: "sender-wait",
		ReceiverWait: "receiver-wait", ValueCell: "value-cell",
	} {
		if s.String() != want {
			t.Errorf("%d = %q", int(s), s.String())
		}
	}
	if !strings.Contains(State(9).String(), "9") {
		t.Error("unknown state")
	}
}

func TestMissAccounting(t *testing.T) {
	c := New(2)
	c.Send(1, 1, ctxA) // miss (new)
	c.Recv(1, ctxB)    // hit
	if c.Stats.Misses != 1 || c.Stats.Hits != 1 {
		t.Errorf("misses=%d hits=%d", c.Stats.Misses, c.Stats.Hits)
	}
}

func TestMinimumCapacity(t *testing.T) {
	c := New(0)
	if c.capacity != 1 {
		t.Errorf("capacity = %d", c.capacity)
	}
	done, _, err := c.Send(1, 9, ctxA)
	if err != nil || done != nil {
		t.Fatal("send failed")
	}
	done, _, err = c.Recv(1, ctxB)
	if err != nil || done == nil || done.Value != 9 {
		t.Fatal("recv failed")
	}
}

// refCache is the message cache with the eviction it had before the
// recency lists: every resident entry carries a unique last-use stamp, and
// an overflow scans all of them for the minimum over (occupancy, last
// use). It is the oracle the O(1) victim choice must match exactly.
type refCache struct {
	capacity int
	byChan   map[int32]*refEntry
	ents     []*refEntry
	clock    uint64
	Stats    Stats
}

type refEntry struct {
	entry
	lastUse uint64
}

func (r *refCache) lookup(ch int32) (*refEntry, bool) {
	r.clock++
	e, known := r.byChan[ch]
	if known && e.resident {
		e.lastUse = r.clock
		r.Stats.Hits++
		return e, false
	}
	r.Stats.Misses++
	if !known {
		e = &refEntry{entry: entry{channel: ch}}
		r.byChan[ch] = e
	}
	e.lastUse = r.clock
	if len(r.ents) >= r.capacity {
		r.evictOne()
	}
	e.resident = true
	r.ents = append(r.ents, e)
	return e, true
}

func (r *refCache) evictOne() {
	vi := 0
	victim := r.ents[0]
	victimEmpty := victim.state() == Empty
	for i := 1; i < len(r.ents); i++ {
		e := r.ents[i]
		isEmpty := e.state() == Empty
		switch {
		case isEmpty != victimEmpty:
			if isEmpty {
				vi, victim, victimEmpty = i, e, true
			}
		case e.lastUse < victim.lastUse:
			vi, victim = i, e
		}
	}
	r.ents = append(r.ents[:vi], r.ents[vi+1:]...)
	victim.resident = false
	if victimEmpty {
		delete(r.byChan, victim.channel)
	} else {
		r.Stats.Evictions++
	}
}

func (r *refCache) send(ch, val int32, sender ContextRef) (*Completion, bool, error) {
	r.Stats.Sends++
	e, missed := r.lookup(ch)
	if e.isCell {
		return nil, missed, fmt.Errorf("mcache: channel %d is a fetch-and-φ cell", ch)
	}
	if len(e.receivers) > 0 {
		rcv := e.receivers[0]
		e.receivers = e.receivers[1:]
		r.Stats.Rendezvous++
		return &Completion{Value: val, Sender: sender, Receiver: rcv}, missed, nil
	}
	e.senders = append(e.senders, waitingSend{val: val, sender: sender})
	return nil, missed, nil
}

func (r *refCache) recv(ch int32, receiver ContextRef) (*Completion, bool, error) {
	r.Stats.Receives++
	e, missed := r.lookup(ch)
	if e.isCell {
		return nil, missed, fmt.Errorf("mcache: channel %d is a fetch-and-φ cell", ch)
	}
	if len(e.senders) > 0 {
		s := e.senders[0]
		e.senders = e.senders[1:]
		r.Stats.Rendezvous++
		return &Completion{Value: s.val, Sender: s.sender, Receiver: receiver}, missed, nil
	}
	e.receivers = append(e.receivers, receiver)
	return nil, missed, nil
}

// fetchPhi is fetch-and-add when add is set, else fetch-and-store.
func (r *refCache) fetchPhi(ch, v int32, add bool) (int32, bool, error) {
	r.Stats.FetchPhis++
	e, missed := r.lookup(ch)
	if !e.isCell && e.state() != Empty {
		return 0, missed, fmt.Errorf("mcache: channel %d is in rendezvous use (%v)", ch, e.state())
	}
	e.isCell = true
	old := e.cellValue
	if add {
		e.cellValue += v
	} else {
		e.cellValue = v
	}
	return old, missed, nil
}

// TestEvictionMatchesReference drives the cache and the reference scan
// with the same seeded random operations over more channels than entries,
// error paths included (a cell used as a channel, a channel used as a
// cell), and compares everything observable after every operation.
func TestEvictionMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 64} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c := New(capacity)
			r := &refCache{capacity: capacity, byChan: map[int32]*refEntry{}}
			channels := int32(2*capacity + 3)
			var errs, evictions int
			for op := 0; op < 2000; op++ {
				ch := 1 + rng.Int31n(channels)
				v := rng.Int31n(1000)
				who := ContextRef{PE: rng.Intn(4), Ctx: op}
				var (
					got, want         *Completion
					gotOld, wantOld   int32
					gotMiss, wantMiss bool
					gotErr, wantErr   error
				)
				kind := rng.Intn(8)
				switch {
				case kind < 3:
					got, gotMiss, gotErr = c.Send(ch, v, who)
					want, wantMiss, wantErr = r.send(ch, v, who)
				case kind < 6:
					got, gotMiss, gotErr = c.Recv(ch, who)
					want, wantMiss, wantErr = r.recv(ch, who)
				case kind < 7:
					gotOld, gotMiss, gotErr = c.FetchAndAdd(ch, v)
					wantOld, wantMiss, wantErr = r.fetchPhi(ch, v, true)
				default:
					gotOld, gotMiss, gotErr = c.FetchAndStore(ch, v)
					wantOld, wantMiss, wantErr = r.fetchPhi(ch, v, false)
				}
				at := func() string {
					return fmt.Sprintf("cap %d seed %d op %d (kind %d ch %d)", capacity, seed, op, kind, ch)
				}
				if (got == nil) != (want == nil) || got != nil && *got != *want {
					t.Fatalf("%s: completion %+v, want %+v", at(), got, want)
				}
				if gotOld != wantOld || gotMiss != wantMiss || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: (old %d, missed %v, err %v), want (%d, %v, %v)",
						at(), gotOld, gotMiss, gotErr, wantOld, wantMiss, wantErr)
				}
				if gotErr != nil {
					errs++
				}
				if c.Stats != r.Stats || c.Resident() != len(r.ents) {
					t.Fatalf("%s: stats %+v resident %d, want %+v resident %d",
						at(), c.Stats, c.Resident(), r.Stats, len(r.ents))
				}
				for k := int32(1); k <= channels; k++ {
					wantState, wantWaiters := Empty, 0
					if e, ok := r.byChan[k]; ok {
						wantState, wantWaiters = e.state(), len(e.senders)+len(e.receivers)
					}
					if s, w := c.ChannelState(k), c.PendingWaiters(k); s != wantState || w != wantWaiters {
						t.Fatalf("%s: channel %d is %v with %d waiters, want %v with %d",
							at(), k, s, w, wantState, wantWaiters)
					}
				}
				evictions = int(r.Stats.Evictions)
			}
			if errs == 0 || evictions == 0 {
				t.Fatalf("cap %d seed %d: %d errors, %d evictions; the sequence misses a path", capacity, seed, errs, evictions)
			}
		}
	}
}

// TestStridedCacheMatchesUnstrided: a cache homing every fifth channel
// (ids 3, 8, 13, …, as element 3 of a five-element machine sees them)
// behaves exactly like a plain cache fed ids 0, 1, 2, … in their place.
func TestStridedCacheMatchesUnstrided(t *testing.T) {
	const stride, home = 5, 3
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		plain, strided := New(3), NewStrided(3, stride)
		for op := 0; op < 1000; op++ {
			k := rng.Int31n(9)
			ch := home + stride*k
			v := rng.Int31n(100)
			who := ContextRef{PE: rng.Intn(4), Ctx: op}
			var want, got *Completion
			var wantMiss, gotMiss bool
			var wantErr, gotErr error
			if rng.Intn(2) == 0 {
				want, wantMiss, wantErr = plain.Send(k, v, who)
				got, gotMiss, gotErr = strided.Send(ch, v, who)
			} else {
				want, wantMiss, wantErr = plain.Recv(k, who)
				got, gotMiss, gotErr = strided.Recv(ch, who)
			}
			if (got == nil) != (want == nil) || got != nil && *got != *want || gotMiss != wantMiss || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("seed %d op %d: strided (%v, %v, %v), plain (%v, %v, %v)", seed, op, got, gotMiss, gotErr, want, wantMiss, wantErr)
			}
			if strided.Stats != plain.Stats || strided.ChannelState(ch) != plain.ChannelState(k) ||
				strided.PendingWaiters(ch) != plain.PendingWaiters(k) {
				t.Fatalf("seed %d op %d: strided and plain caches diverge", seed, op)
			}
		}
	}
	if _, _, err := New(1).Send(-1, 0, ContextRef{}); err == nil {
		t.Error("negative channel accepted")
	}
}
