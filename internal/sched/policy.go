package sched

// ctxFIFO is a ready queue that pops by advancing a head index instead of
// re-slicing, so the backing array is reused once drained and steady-state
// ready/dispatch traffic never reallocates. A queue that never drains
// reclaims its consumed prefix before it would grow, once that prefix is
// at least half the array, so its array stays within twice its longest
// backlog. (Moved here from the kernel, which used it as its only
// dispatch structure.)
type ctxFIFO struct {
	ids  []int
	head int
}

func (f *ctxFIFO) push(id int) {
	if len(f.ids) == cap(f.ids) && 2*f.head >= len(f.ids) && f.head > 0 {
		f.ids = f.ids[:copy(f.ids, f.ids[f.head:])]
		f.head = 0
	}
	f.ids = append(f.ids, id)
}

func (f *ctxFIFO) pop() (int, bool) {
	if f.head == len(f.ids) {
		return 0, false
	}
	id := f.ids[f.head]
	f.head++
	if f.head == len(f.ids) {
		f.ids = f.ids[:0]
		f.head = 0
	}
	return id, true
}

func (f *ctxFIFO) len() int { return len(f.ids) - f.head }

// base carries the machine size and the kernel load view shared by every
// policy.
type base struct {
	numPEs int
	loads  Loads
}

func (b *base) Bind(loads Loads) { b.loads = loads }

// leastLoaded is the thesis placement rule: the element hosting the fewest
// live contexts, ties broken by lowest identifier.
func (b *base) leastLoaded() int {
	best := 0
	for p := 1; p < b.numPEs; p++ {
		if b.loads.Resident(p) < b.loads.Resident(best) {
			best = p
		}
	}
	return best
}

// fifoPolicy is the exact §6.2 baseline: least-loaded placement and
// per-element FIFO dispatch.
type fifoPolicy struct {
	base
	ready []ctxFIFO
}

func newFIFO(numPEs int) *fifoPolicy {
	return &fifoPolicy{base: base{numPEs: numPEs}, ready: make([]ctxFIFO, numPEs)}
}

func (f *fifoPolicy) Name() string                     { return FIFO }
func (f *fifoPolicy) Place(parentPE int, _ int32) int  { return f.leastLoaded() }
func (f *fifoPolicy) Enqueue(peID, ctxID int, _ int32) { f.ready[peID].push(ctxID) }
func (f *fifoPolicy) Len(peID int) int                 { return f.ready[peID].len() }

func (f *fifoPolicy) Dispatch(peID int) (int, int, bool) {
	id, ok := f.ready[peID].pop()
	return id, peID, ok
}

// localityPolicy keeps forked children on the parent's element while the
// load balance allows, and otherwise spills to lightly loaded elements in
// ring partitions close to the parent — so the parent↔child splice
// protocol and the first rendezvous exchanges stay off the ring links.
// Dispatch is plain FIFO.
type localityPolicy struct {
	fifoPolicy
	slack int
	topo  Topology
}

func (l *localityPolicy) Name() string { return Locality }

func (l *localityPolicy) Place(parentPE int, _ int32) int {
	least := l.leastLoaded()
	minLoad := l.loads.Resident(least)
	if parentPE < 0 || parentPE >= l.numPEs {
		return least
	}
	if l.loads.Resident(parentPE) <= minLoad+l.slack {
		return parentPE
	}
	if l.topo == nil {
		return least
	}
	// The parent is overloaded: among elements within the slack of the
	// minimum load, pick the one fewest ring hops from the parent, ties by
	// lighter load then lower identifier (the ascending scan with strict
	// improvement makes the id tie-break implicit).
	best, bestHops, bestLoad := least, l.topo.Hops(parentPE, least), minLoad
	for p := 0; p < l.numPEs; p++ {
		load := l.loads.Resident(p)
		if load > minLoad+l.slack {
			continue
		}
		h := l.topo.Hops(parentPE, p)
		if h < bestHops || (h == bestHops && load < bestLoad) {
			best, bestHops, bestLoad = p, h, load
		}
	}
	return best
}

// stealPolicy is fifo placement plus work stealing: an element whose own
// queue is empty pulls the oldest ready context from the longest queue in
// the machine (ties by lowest victim identifier), provided that queue holds
// at least threshold contexts. The kernel re-homes the stolen context and
// the simulator charges the migration a ring transfer plus the context's
// window roll-out.
type stealPolicy struct {
	fifoPolicy
	threshold int
}

func (s *stealPolicy) Name() string { return Steal }

func (s *stealPolicy) Dispatch(peID int) (int, int, bool) {
	if id, ok := s.ready[peID].pop(); ok {
		return id, peID, true
	}
	victim, longest := -1, s.threshold-1
	for p := range s.ready {
		if p == peID {
			continue
		}
		if n := s.ready[p].len(); n > longest {
			victim, longest = p, n
		}
	}
	if victim < 0 {
		return 0, peID, false
	}
	id, _ := s.ready[victim].pop()
	return id, victim, true
}

// prioEntry is one queued context in a critpath ready set.
type prioEntry struct {
	ctx  int
	prio int32
	seq  uint64 // global arrival order; the FIFO tie-break
}

// prioQueue is a binary max-heap ordered by (prio descending, seq
// ascending): the heaviest context first, FIFO among equal weights. The
// arrival sequence tie-break makes dispatch deterministic and keeps equal
// priorities starvation-free.
type prioQueue struct {
	heap []prioEntry
}

func (q *prioQueue) len() int { return len(q.heap) }

func (q *prioQueue) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.seq < b.seq
}

func (q *prioQueue) push(e prioEntry) {
	q.heap = append(q.heap, e)
	i := len(q.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *prioQueue) pop() (prioEntry, bool) {
	if len(q.heap) == 0 {
		return prioEntry{}, false
	}
	top := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(q.heap) && q.less(l, smallest) {
			smallest = l
		}
		if r < len(q.heap) && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.heap[i], q.heap[smallest] = q.heap[smallest], q.heap[i]
		i = smallest
	}
	return top, true
}

// critpathPolicy is least-loaded placement with priority dispatch: each
// element runs the ready context with the largest static graph weight — the
// §4.5 cost-analysis estimate of the computation the context enables,
// carried from the compiler through the object code into the context — so
// the work the rest of the program waits on leaves the ready queue first.
type critpathPolicy struct {
	base
	ready []prioQueue
	seq   uint64
}

func newCritPath(numPEs int) *critpathPolicy {
	return &critpathPolicy{base: base{numPEs: numPEs}, ready: make([]prioQueue, numPEs)}
}

func (c *critpathPolicy) Name() string                    { return CritPath }
func (c *critpathPolicy) Place(parentPE int, _ int32) int { return c.leastLoaded() }
func (c *critpathPolicy) Len(peID int) int                { return c.ready[peID].len() }

func (c *critpathPolicy) Enqueue(peID, ctxID int, prio int32) {
	c.seq++
	c.ready[peID].push(prioEntry{ctx: ctxID, prio: prio, seq: c.seq})
}

func (c *critpathPolicy) Dispatch(peID int) (int, int, bool) {
	e, ok := c.ready[peID].pop()
	return e.ctx, peID, ok
}
