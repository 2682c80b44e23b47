// Package kernel implements the queue machine multiprocessing kernel of
// §6.2: the context table and context state machine (Figure 6.4), queue
// page allocation, channel identifier allocation, the kernel entry points
// of Table 6.1 (context creation via rfork/ifork, termination, channel
// allocation, real-time services), and the context scheduling seam that
// distributes freshly forked contexts across processing elements and picks
// the next ready context to dispatch.
//
// The kernel's code runs on the processing elements themselves (entered by
// trap instructions); the simulator charges its cost at the trap site and
// uses this package for the bookkeeping. The two scheduling decisions —
// placement on fork and ready-queue ordering on dispatch — are delegated to
// an internal/sched Policy chosen per run; the zero configuration is the
// thesis's least-loaded + FIFO baseline.
package kernel

import (
	"fmt"

	"queuemachine/internal/pe"
	"queuemachine/internal/sched"
	"queuemachine/internal/trace"
)

// Stats aggregates kernel activity for the Chapter 6 statistics tables.
type Stats struct {
	ContextsCreated  int64
	ContextsFinished int64
	RForks           int64
	IForks           int64
	ChannelsCreated  int64
	Migrations       int64 // contexts placed on a PE other than their parent's
	Steals           int64 // contexts re-homed by a work-stealing dispatch
}

// Kernel is the multiprocessing kernel state.
type Kernel struct {
	numPEs   int
	nextCtx  int
	nextChan int32
	pol      sched.Policy
	contexts []*pe.Context // indexed by context id; nil once exited
	home     []int32       // indexed by context id
	resident []int         // per-PE count of live contexts
	pools    []ctxPool     // exited contexts for reuse, one pool per page size
	live     int
	rec      trace.Recorder
	Stats    Stats
}

// ctxPool holds exited contexts with queue pages of one size.
type ctxPool struct {
	words int
	free  []*pe.Context
}

// pool returns the pool for contexts with pages of the given size. A
// program has a handful of page sizes, so a scan beats a map.
func (k *Kernel) pool(words int) *ctxPool {
	for i := range k.pools {
		if k.pools[i].words == words {
			return &k.pools[i]
		}
	}
	k.pools = append(k.pools, ctxPool{words: words})
	return &k.pools[len(k.pools)-1]
}

// SetRecorder installs the instrumentation recorder (nil disables). The
// recorder observes the context lifecycle; it never alters scheduling.
func (k *Kernel) SetRecorder(rec trace.Recorder) { k.rec = rec }

// New builds a kernel for a system with the given number of processing
// elements, scheduling through pol; nil selects the fifo baseline. Channel
// identifiers start above zero so that 0 can serve as a null channel.
func New(numPEs int, pol sched.Policy) *Kernel {
	if pol == nil {
		pol, _ = sched.New(sched.Config{}, numPEs, nil) // fifo never fails
	}
	k := &Kernel{
		numPEs:   numPEs,
		pol:      pol,
		resident: make([]int, numPEs),
		nextChan: 1,
	}
	pol.Bind(k)
	return k
}

// Policy reports the scheduling policy the kernel dispatches through.
func (k *Kernel) Policy() sched.Policy { return k.pol }

// AllocChannel returns a fresh channel identifier.
func (k *Kernel) AllocChannel() int32 {
	ch := k.nextChan
	k.nextChan++
	k.Stats.ChannelsCreated++
	return ch
}

// Allocated reports whether AllocChannel has returned ch.
func (k *Kernel) Allocated(ch int32) bool { return ch > 0 && ch < k.nextChan }

// CreateContext allocates a context for the given graph, assigns it to a
// processing element chosen by the scheduling policy, marks it ready, and
// returns it with its hosting PE. prio is the context's static dispatch
// priority (the compiled graph weight; only priority policies read it).
// The caller sets the channel registers. `at` is the simulated time of the
// creating event, used only for instrumentation.
func (k *Kernel) CreateContext(graph, pageWords, parentID, parentPE int, prio int32, at int64) (*pe.Context, int) {
	id := k.nextCtx
	k.nextCtx++
	var c *pe.Context
	if p := k.pool(pageWords); len(p.free) > 0 {
		n := len(p.free)
		c = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		c.Reset(id, graph)
	} else {
		c = pe.NewContext(id, graph, pageWords)
	}
	c.Parent = parentID
	c.Priority = prio
	target := k.pol.Place(parentPE, prio)
	k.contexts = append(k.contexts, c)
	k.home = append(k.home, int32(target))
	k.resident[target]++
	k.live++
	k.Stats.ContextsCreated++
	if target != parentPE {
		k.Stats.Migrations++
	}
	k.pol.Enqueue(target, id, prio)
	if k.rec != nil {
		k.rec.ContextCreated(id, parentID, target, at)
		k.rec.ContextReady(id, target, k.pol.Len(target), at)
	}
	return c, target
}

// Context returns a live context by identifier.
func (k *Kernel) Context(id int) (*pe.Context, error) {
	if id < 0 || id >= len(k.contexts) || k.contexts[id] == nil {
		return nil, fmt.Errorf("kernel: no context %d", id)
	}
	return k.contexts[id], nil
}

// Home reports the processing element hosting a context.
func (k *Kernel) Home(id int) (int, error) {
	if id < 0 || id >= len(k.contexts) || k.contexts[id] == nil {
		return 0, fmt.Errorf("kernel: no context %d", id)
	}
	return int(k.home[id]), nil
}

// Ready marks a blocked context runnable, appending it to its processing
// element's ready queue. The context must not already be queued or running.
// `at` is the simulated time of the unblocking event, used only for
// instrumentation.
func (k *Kernel) Ready(id int, at int64) error {
	if id < 0 || id >= len(k.contexts) || k.contexts[id] == nil {
		return fmt.Errorf("kernel: ready on unknown context %d", id)
	}
	c := k.contexts[id]
	if c.Status == pe.Ready || c.Status == pe.Done {
		return fmt.Errorf("kernel: context %d cannot become ready from %v", id, c.Status)
	}
	c.Status = pe.Ready
	p := int(k.home[id])
	k.pol.Enqueue(p, id, c.Priority)
	if k.rec != nil {
		k.rec.ContextReady(id, p, k.pol.Len(p), at)
	}
	return nil
}

// NextReady pops the next runnable context for a processing element,
// returning nil when the policy has nothing for it. The second result is
// the element whose ready queue supplied the context: it differs from peID
// when a work-stealing policy migrated the context, in which case the
// kernel has already re-homed it (the caller charges the migration cost).
func (k *Kernel) NextReady(peID int) (*pe.Context, int) {
	id, from, ok := k.pol.Dispatch(peID)
	if !ok {
		return nil, peID
	}
	c := k.contexts[id]
	c.Status = pe.Running
	if from != peID {
		k.resident[from]--
		k.resident[peID]++
		k.home[id] = int32(peID)
		k.Stats.Steals++
	}
	return c, from
}

// ReadyCount reports the length of a processing element's ready queue.
func (k *Kernel) ReadyCount(peID int) int { return k.pol.Len(peID) }

// Resident reports how many live contexts a processing element hosts. It
// is also the sched.Loads view placement policies read.
func (k *Kernel) Resident(peID int) int { return k.resident[peID] }

// Exit terminates a context (the KExit entry point), releasing its queue
// page and removing it from its processing element. `at` is the simulated
// time of the exit trap, used only for instrumentation.
func (k *Kernel) Exit(id int, at int64) error {
	if id < 0 || id >= len(k.contexts) || k.contexts[id] == nil {
		return fmt.Errorf("kernel: exit of unknown context %d", id)
	}
	c := k.contexts[id]
	c.Status = pe.Done
	p := int(k.home[id])
	k.resident[p]--
	k.live--
	k.Stats.ContextsFinished++
	k.contexts[id] = nil
	pool := k.pool(len(c.Page))
	pool.free = append(pool.free, c)
	if k.rec != nil {
		k.rec.ContextExited(id, p, at)
	}
	return nil
}

// Live reports the number of live contexts in the system.
func (k *Kernel) Live() int { return k.live }

// Snapshot lists the live contexts and their states, for deadlock reports.
func (k *Kernel) Snapshot() []string {
	var out []string
	for id := 0; id < k.nextCtx; id++ {
		c := k.contexts[id]
		if c == nil {
			continue
		}
		out = append(out, fmt.Sprintf("context %d: graph %d pc %d %v on pe %d (parent %d, cin %d, cout %d)",
			id, c.Graph, c.PC, c.Status, k.home[id], c.Parent, c.In(), c.Out()))
	}
	return out
}
