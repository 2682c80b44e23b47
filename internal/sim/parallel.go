package sim

// Host-parallel execution engine: run-to-block lookahead with sequential
// commit.
//
// A literal parallel discrete-event scheme — partitioning the event queue
// across workers and synchronising on the ring's inter-partition latency —
// cannot be bit-exact here: the kernel's least-loaded placement, the global
// context and channel counters (a channel's home element is ch % numPEs),
// the ring's shared contention clocks, and the queue's seq tie-breaks all
// couple every partition to every other at zero lookahead. Instead the
// engine exploits the property the batching oracle (Params.NoBatch) already
// proves: a dispatched context runs deterministically until its own
// blocking action, regardless of what the rest of the machine does in the
// meantime. Worker goroutines therefore pre-execute each armed context
// through its private machine into a per-element entry buffer ("fill
// pass"), while a single commit loop — this file's run() — pops events in
// exactly the sequential (time, seq) order and replays the recorded entries
// for all global bookkeeping: instruction counts, watchdogs, recorder
// hooks, sampling, kernel, caches, and ring. Everything that couples
// elements happens on the commit goroutine, in the sequential order, so the
// simulated results are bit-identical by construction; the workers only
// move the per-instruction execute work off the critical path.
//
// Memory safety follows the simulated machine's own synchronisation: any
// simulated-time ordering between conflicting data accesses of two
// contexts is established by a rendezvous or fork chain, and every such
// chain passes through the commit loop, which receives the first worker's
// pass (channel receive in sync) before arming the dependent context
// (channel send in enqueue). The host happens-before relation therefore
// contains the simulated one, and a race-free simulated program executes
// race-free on the host at every worker count.

import (
	"fmt"
	"sync"

	"queuemachine/internal/pe"
	"queuemachine/internal/trace"
)

// HostStats counts the host-parallel engine's own execution events. Unlike
// every other Result field it describes the simulator, not the simulated
// machine: simulated statistics are bit-identical across engines and worker
// counts, while these vary with the host's scheduling.
type HostStats struct {
	// Workers is the resolved worker-goroutine count; zero means the run
	// used the sequential engine.
	Workers int
	// Epochs counts lookahead fill passes queued to workers (one per arm
	// or window extension).
	Epochs int64
	// Barriers counts fill passes the commit loop had to block on — the
	// lookahead was not ready when the commit order needed it.
	Barriers int64
	// CrossMessages counts ring transfers between processing elements
	// owned by different workers.
	CrossMessages int64
}

// hostBufInit and hostBufMax bound a job's recorded-lookahead window in
// instructions. The window starts small (most contexts block within a few
// dozen instructions), grows fourfold whenever the commit loop finds it too
// short for the batching horizon, and saturates at hostBufMax — beyond
// that the commit loop replays what was recorded and continues inline,
// which is exactly the sequential engine's loop body.
const (
	hostBufInit = 1 << 10
	hostBufMax  = 1 << 16
)

// hostEntry records one pre-executed instruction: everything the commit
// loop needs to replay the sequential engine's bookkeeping — the Instr
// hook (graph, pc, stall), the sampling mirror (cycles, queue), and the
// simulated clock (cycles) — without touching the machine.
type hostEntry struct {
	cycles int32
	queue  int32
	stall  int32
	graph  int32
	pc     int32
}

// hostJob is one processing element's lookahead state. The commit loop and
// the owning worker alternate ownership: enqueue hands the job to the
// worker (channel send), sync takes it back (channel receive); between
// those edges exactly one side touches it.
type hostJob struct {
	c         *pe.Context
	buf       []hostEntry
	consumed  int   // entries already replayed by the commit loop
	summed    int   // entries folded into remCycles
	remCycles int64 // total cycles of unconsumed entries
	capacity  int   // current pass target: fill until len(buf) reaches it
	done      bool  // context reached a blocking action; final is valid
	final     pe.Outcome
	err       error
	armed     bool
	queued    bool          // a fill pass is queued or running
	ready     chan struct{} // worker publishes pass completion (capacity 1)
}

// hostMirror is the commit loop's copy of a processing element's sampled
// machine counters. Workers run machines ahead of simulated time, so
// emitSample cannot read machine Stats under this engine; the mirror
// advances exactly as instructions commit.
type hostMirror struct {
	cycles int64
	instrs int64
	qsum   int64
}

// parEngine is the host-parallel engine of one System.
type parEngine struct {
	s      *System
	stats  HostStats
	owner  []int // processing element -> worker index
	jobs   []hostJob
	mirror []hostMirror
	workCh []chan int // per-worker queue of processing-element ids
	wg     sync.WaitGroup
}

func newParEngine(s *System, workers int) *parEngine {
	p := &parEngine{
		s:      s,
		owner:  make([]int, s.numPEs),
		jobs:   make([]hostJob, s.numPEs),
		mirror: make([]hostMirror, s.numPEs),
		workCh: make([]chan int, workers),
	}
	p.stats.Workers = workers
	// Shard whole ring partitions onto workers: elements of one partition
	// share a bus segment (and hence communication locality), so keeping a
	// partition on one worker keeps the cross-worker message count — and
	// the CrossMessages counter — meaningful.
	parts := s.bus.Partitions()
	for id := 0; id < s.numPEs; id++ {
		p.owner[id] = s.bus.Partition(id) * workers / parts
	}
	for i := range p.jobs {
		p.jobs[i].ready = make(chan struct{}, 1)
	}
	for w := range p.workCh {
		// Buffered to the element count: at most one queued pass per
		// element, so enqueue never blocks the commit loop.
		p.workCh[w] = make(chan int, s.numPEs)
	}
	return p
}

// run is the commit loop: the sequential event loop of System.runLoop with
// evStep handling replaced by recorded-entry replay. Workers live exactly
// as long as this call.
func (p *parEngine) run() {
	s := p.s
	for w := range p.workCh {
		p.wg.Add(1)
		go p.worker(p.workCh[w])
	}
	defer func() {
		for _, ch := range p.workCh {
			close(ch)
		}
		p.wg.Wait()
	}()
	var polled uint
	for s.q.len() > 0 && !s.finished && s.err == nil {
		if polled++; polled%ctxPollEvents == 0 {
			if err := s.runCtx.Err(); err != nil {
				s.fail(fmt.Errorf("sim: aborted at cycle %d: %w", s.now, err))
				return
			}
		}
		p.await()
		e := s.q.pop()
		s.now = e.time
		if s.now > s.p.MaxCycles {
			s.err = fmt.Errorf("sim: exceeded %d cycles", s.p.MaxCycles)
			return
		}
		if s.sampleEvery > 0 {
			for s.now >= s.nextSample {
				s.emitSample(s.nextSample)
				s.nextSample += s.sampleEvery
			}
		}
		switch e.kind {
		case evStep:
			p.step(e)
		case evChanReq:
			s.handleChanReq(e)
		case evRecvDone:
			s.handleRecvDone(e)
		case evSendDone:
			s.handleSendDone(e)
		case evWake:
			s.handleWake(e)
		case evKick:
			s.dispatch(int(e.pe))
		}
	}
}

// await makes the queue's minimum event committable. For a step event
// this means the element's recorded lookahead provably carries the commit
// loop past the event: to the context's blocking action, to the batching
// horizon, to a watchdog trip, or to window saturation. Anything short of
// that extends the window and waits for the worker — the only place the
// commit loop ever blocks.
func (p *parEngine) await() {
	s := p.s
	for {
		e := s.q.peek()
		if e.kind != evStep {
			return
		}
		c := s.running[e.pe]
		if c == nil || c.ID != int(e.ctx) {
			return // stale event; step discards it
		}
		j := &p.jobs[e.pe]
		if !j.armed || j.c != c {
			return // not under lookahead; step runs it inline
		}
		p.sync(j)
		if j.done || j.err != nil {
			return
		}
		avail := len(j.buf) - j.consumed
		if s.instructions+int64(avail) > s.p.MaxInstructions {
			return // the instruction watchdog trips inside the window
		}
		if avail >= hostBufMax {
			return // saturated: replay the window, then continue inline
		}
		horizon := s.q.secondTime()
		if s.p.NoBatch {
			horizon = e.time
		}
		if avail > 0 && e.time+j.remCycles >= horizon {
			return // the batch defers at the horizon inside the window
		}
		p.extend(int(e.pe))
	}
}

// step commits one step event: the exact bookkeeping System.handleStep
// performs, fed from the recorded entries instead of live execution. When
// the entries run out without a blocking action (saturated window), it
// continues inline with ExecOne — the sequential loop body verbatim.
func (p *parEngine) step(e event) {
	s := p.s
	c := s.running[e.pe]
	if c == nil || c.ID != int(e.ctx) {
		return // stale event after a switch
	}
	j := &p.jobs[e.pe]
	m := s.machines[e.pe]
	mm := &p.mirror[e.pe]
	live := j.armed && j.c == c
	horizon := s.q.peekTime()
	if s.p.NoBatch {
		horizon = s.now // every step reaches the horizon: event-per-step
	}
	for {
		s.instructions++
		if s.instructions > s.p.MaxInstructions {
			s.fail(fmt.Errorf("sim: exceeded %d instructions", s.p.MaxInstructions))
			return
		}
		var out pe.Outcome
		switch {
		case live && j.consumed < len(j.buf):
			ent := &j.buf[j.consumed]
			j.consumed++
			j.remCycles -= int64(ent.cycles)
			if s.rec != nil {
				s.rec.Instr(int(e.pe), c.ID, int(ent.graph), int(ent.pc),
					s.prog.Mnemonic(int(ent.graph), int(ent.pc)), s.now, int(ent.cycles), int(ent.stall))
			}
			if s.sampleEvery > 0 {
				mm.cycles += int64(ent.cycles)
				mm.instrs++
				mm.qsum += int64(ent.queue)
			}
			if j.consumed == len(j.buf) && j.done {
				out = j.final
			} else {
				out = pe.Outcome{Cycles: int(ent.cycles), Queue: int(ent.queue)}
			}
		case live && j.err != nil:
			// The erroring instruction recorded no entry; it charges the
			// instruction count (incremented above) and fails, exactly as
			// the sequential engine's failing ExecOne.
			s.fail(j.err)
			return
		default:
			// Past the recorded window (or never under lookahead): the
			// worker is idle on this job, so the machine is ours; ExecOne
			// fires the Instr hook itself.
			o, err := m.ExecOne(c, s.now)
			if err != nil {
				s.fail(err)
				return
			}
			if s.sampleEvery > 0 {
				mm.cycles += int64(o.Cycles)
				mm.instrs++
				mm.qsum += int64(o.Queue)
			}
			out = o
		}
		t := s.now + int64(out.Cycles)
		switch out.Act {
		case pe.ActNone:
			// Straight-line: fall through to the batch continuation test.
		case pe.ActSend:
			p.disarm(j)
			c.Status = pe.BlockedSend
			s.running[e.pe] = nil
			if s.rec != nil {
				s.rec.EndRun(int(e.pe), c.ID, t, trace.EndBlockedSend)
			}
			s.routeChanOp(t, int(e.pe), opSend, out.Ch, out.Val, c.ID)
			s.scheduleKick(int(e.pe), t)
			return
		case pe.ActRecv:
			p.disarm(j)
			c.Status = pe.BlockedRecv
			s.running[e.pe] = nil
			if s.rec != nil {
				s.rec.EndRun(int(e.pe), c.ID, t, trace.EndBlockedRecv)
			}
			s.routeChanOp(t, int(e.pe), opRecv, out.Ch, 0, c.ID)
			s.scheduleKick(int(e.pe), t)
			return
		case pe.ActTrap:
			// handleTrap re-arms the job itself on the resuming entry
			// points (fork, channel allocation, clock read).
			p.disarm(j)
			s.handleTrap(int(e.pe), c, out.Code, out.Arg, t)
			return
		}
		if t >= horizon {
			s.schedule(t, event{kind: evStep, pe: e.pe, ctx: int32(c.ID)})
			return
		}
		// The next step would be the queue minimum anyway; take it without
		// the round-trip, replaying the bookkeeping the event pop would
		// have done: advance the clock, trip the cycle watchdog, close
		// sampling buckets, and poll for cancellation.
		s.now = t
		if s.now > s.p.MaxCycles {
			s.fail(fmt.Errorf("sim: exceeded %d cycles", s.p.MaxCycles))
			return
		}
		if s.sampleEvery > 0 {
			for s.now >= s.nextSample {
				s.emitSample(s.nextSample)
				s.nextSample += s.sampleEvery
			}
		}
		if s.instrsToPoll--; s.instrsToPoll <= 0 {
			s.instrsToPoll = ctxPollInstrs
			if err := s.runCtx.Err(); err != nil {
				s.fail(fmt.Errorf("sim: aborted at cycle %d: %w", s.now, err))
				return
			}
		}
	}
}

// arm starts lookahead on a freshly dispatched (or resumed) context: reset
// the job and queue the first fill pass. The job cannot be queued here —
// every arm site follows a disarm (or a fresh dispatch) on a synced job.
func (p *parEngine) arm(peID int, c *pe.Context) {
	j := &p.jobs[peID]
	j.c = c
	j.buf = j.buf[:0]
	j.consumed = 0
	j.summed = 0
	j.remCycles = 0
	j.capacity = hostBufInit
	j.done = false
	j.final = pe.Outcome{}
	j.err = nil
	j.armed = true
	p.enqueue(peID)
}

func (p *parEngine) disarm(j *hostJob) {
	j.armed = false
	j.c = nil
}

// extend grows a too-short lookahead window and queues another fill pass:
// the consumed prefix is compacted away, and the pass target grows fourfold
// up to the saturation bound.
func (p *parEngine) extend(peID int) {
	j := &p.jobs[peID]
	if j.consumed > 0 {
		n := copy(j.buf, j.buf[j.consumed:])
		j.buf = j.buf[:n]
		j.summed -= j.consumed
		j.consumed = 0
	}
	if j.capacity < hostBufMax {
		j.capacity *= 4
		if j.capacity > hostBufMax {
			j.capacity = hostBufMax
		}
	}
	p.enqueue(peID)
}

// enqueue hands the job to its owning worker. The channel send publishes
// every commit-side write to the job and its context to the worker.
func (p *parEngine) enqueue(peID int) {
	j := &p.jobs[peID]
	j.queued = true
	p.stats.Epochs++
	p.workCh[p.owner[peID]] <- peID
}

// sync takes the job back from its worker, blocking until the queued fill
// pass has published. The channel receive publishes every worker-side write
// to the job, its context, and its machine to the commit loop. A blocking
// sync is a barrier: the lookahead was not ready when the commit order
// needed it.
func (p *parEngine) sync(j *hostJob) {
	if !j.queued {
		return
	}
	select {
	case <-j.ready:
	default:
		p.stats.Barriers++
		<-j.ready
	}
	j.queued = false
	for i := j.summed; i < len(j.buf); i++ {
		j.remCycles += int64(j.buf[i].cycles)
	}
	j.summed = len(j.buf)
}

// worker drains fill passes for the processing elements this worker owns.
func (p *parEngine) worker(ch chan int) {
	defer p.wg.Done()
	for peID := range ch {
		p.fill(peID)
	}
}

// fill pre-executes the job's context on its private machine until the
// context blocks, an error trips, or the pass target is reached, recording
// one entry per retired instruction. ExecRecorded keeps the recorder
// silent — hooks are not safe off the commit goroutine and need issue
// times the worker does not know — and reports the presence-bit stall the
// commit loop will replay into the Instr hook.
func (p *parEngine) fill(peID int) {
	j := &p.jobs[peID]
	m := p.s.machines[peID]
	c := j.c
	for len(j.buf) < j.capacity {
		graph, pc := c.Graph, c.PC
		out, stall, err := m.ExecRecorded(c)
		if err != nil {
			j.err = err
			break
		}
		j.buf = append(j.buf, hostEntry{
			cycles: int32(out.Cycles),
			queue:  int32(out.Queue),
			stall:  int32(stall),
			graph:  int32(graph),
			pc:     int32(pc),
		})
		if out.Act != pe.ActNone {
			j.done = true
			j.final = out
			break
		}
	}
	j.ready <- struct{}{}
}
