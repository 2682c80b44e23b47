package sim

import (
	"context"
	"fmt"

	"queuemachine/internal/isa"
	"queuemachine/internal/kernel"
	"queuemachine/internal/mcache"
	"queuemachine/internal/pe"
	"queuemachine/internal/ring"
	"queuemachine/internal/sched"
	"queuemachine/internal/trace"
)

// Result reports one simulated run.
type Result struct {
	Cycles       int64
	NumPEs       int
	Instructions int64
	PEStats      []pe.Stats
	Kernel       kernel.Stats
	Ring         ring.Stats
	Cache        mcache.Stats
	// Switches and Resumes count context dispatches with and without a
	// window roll-out; RolledRegisters totals the registers rolled out.
	Switches, Resumes, RolledRegisters int64
	MemReads, MemWrites                int64
	// Data is the final contents of the static data segment, for result
	// verification. It is populated only when Params.KeepData is set (the
	// default): servers that never read the data segment skip the copy.
	Data []int32
}

// AvgQueueLength reports the mean operand-queue span per executed
// instruction across the machine (§5.2's page-utilization measure).
func (r *Result) AvgQueueLength() float64 {
	var sum, n int64
	for _, s := range r.PEStats {
		sum += s.QueueSum
		n += s.Instructions
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// Utilization reports the mean fraction of cycles the processing elements
// spent executing instructions.
func (r *Result) Utilization() float64 {
	if r.Cycles == 0 || len(r.PEStats) == 0 {
		return 0
	}
	var busy int64
	for _, s := range r.PEStats {
		busy += s.Cycles
	}
	return float64(busy) / float64(r.Cycles*int64(len(r.PEStats)))
}

// System is one configured multiprocessor simulation.
type System struct {
	prog     *pe.Program
	numPEs   int
	p        Params
	kern     *kernel.Kernel
	bus      *ring.Ring
	caches   []*mcache.Cache
	mpFree   []int64
	machines []*pe.Machine
	mem      *pe.Memory

	q   eventQueue
	now int64

	running []*pe.Context
	lastCtx []*pe.Context // context whose window registers are loaded

	// fuse enables same-cycle event fusion (see runLoop). It is off under
	// Params.NoBatch; tests turn it off alone for a batched oracle.
	fuse bool

	// rec is the instrumentation recorder; nil (the default) disables every
	// hook behind a single pointer test. sampleEvery/nextSample drive the
	// cycle-sampled Sample callbacks.
	rec         trace.Recorder
	sampleEvery int64
	nextSample  int64

	// runCtx is the context of the ongoing RunContext call; the batching
	// loop polls it on an instruction-count cadence so a deadline aborts a
	// long straight-line run even when no event boundary is near.
	runCtx                        context.Context
	instrsToPoll                  int
	switches, resumes, rolledRegs int64
	instructions                  int64
	endTime                       int64
	finished                      bool
	err                           error
}

// New builds a simulation of the object program on numPEs processing
// elements: pe.LoadProgram followed by NewProgram.
func New(obj *isa.Object, numPEs int, params Params) (*System, error) {
	prog, err := pe.LoadProgram(obj)
	if err != nil {
		return nil, err
	}
	return NewProgram(prog, numPEs, params)
}

// NewProgram builds a simulation of an already loaded program on numPEs
// processing elements. The simulation only reads prog, so one loaded
// program can back any number of simulations, concurrent ones included:
// a server loads a program once and runs it many times.
func NewProgram(prog *pe.Program, numPEs int, params Params) (*System, error) {
	if numPEs < 1 {
		return nil, fmt.Errorf("sim: need at least one processing element")
	}
	if numPEs > MaxPEs {
		return nil, &ConfigError{Field: "pes", Reason: fmt.Sprintf(
			"%d processing elements exceed the supported maximum of %d", numPEs, MaxPEs)}
	}
	obj := prog.Obj
	partitions := params.Partitions
	if partitions == 0 {
		partitions = defaultPartitions(numPEs)
	}
	bus, err := ring.New(numPEs, partitions, params.Ring)
	if err != nil {
		return nil, err
	}
	pol, err := sched.New(params.Scheduler, numPEs, bus)
	if err != nil {
		return nil, err
	}
	s := &System{
		prog:     prog,
		numPEs:   numPEs,
		p:        params,
		kern:     kernel.New(numPEs, pol),
		bus:      bus,
		caches:   make([]*mcache.Cache, numPEs),
		mpFree:   make([]int64, numPEs),
		machines: make([]*pe.Machine, numPEs),
		mem:      pe.NewMemory(obj.DataWords, obj.DataInit, int(params.StoreBroadcast)),
		running:  make([]*pe.Context, numPEs),
		lastCtx:  make([]*pe.Context, numPEs),
		fuse:     !params.NoBatch,
	}
	for i := 0; i < numPEs; i++ {
		s.caches[i] = mcache.NewStrided(params.MsgCacheEntries, numPEs)
		s.machines[i] = pe.NewMachine(i, params.PE, prog, s.mem)
	}
	return s, nil
}

// SetRecorder installs an instrumentation recorder on the system and every
// unit beneath it (processing elements, kernel, ring); nil uninstalls. The
// recorder observes the run — it never changes event timing, so cycle counts
// are bit-identical with and without one. Call before Run; recorders are not
// safe for use across concurrent systems.
func (s *System) SetRecorder(rec trace.Recorder) {
	s.rec = rec
	s.kern.SetRecorder(rec)
	s.bus.SetRecorder(rec)
	for _, m := range s.machines {
		m.SetRecorder(rec)
	}
	s.sampleEvery = 0
	if rec != nil {
		s.sampleEvery = rec.SampleEvery()
	}
	s.nextSample = s.sampleEvery
}

// Run executes the program to completion and returns the run statistics.
func Run(obj *isa.Object, numPEs int, params Params) (*Result, error) {
	return RunContext(context.Background(), obj, numPEs, params)
}

// RunContext executes the program to completion, aborting between events
// once ctx is cancelled or its deadline passes.
func RunContext(ctx context.Context, obj *isa.Object, numPEs int, params Params) (*Result, error) {
	s, err := New(obj, numPEs, params)
	if err != nil {
		return nil, err
	}
	return s.RunContext(ctx)
}

// Run drives the event loop until every context has terminated.
func (s *System) Run() (*Result, error) { return s.RunContext(context.Background()) }

// ctxPollEvents is how many events the loop processes between context
// cancellation checks: often enough that a deadline aborts within
// microseconds, rarely enough that the check costs nothing measurable.
// ctxPollInstrs is the same cadence counted in batched instructions: with
// straight-line batching a single event can cover thousands of
// instructions, so the event count alone would let a cancelled run spin
// far past its deadline.
const (
	ctxPollEvents = 1024
	ctxPollInstrs = 1024
)

// RunContext drives the event loop until every context has terminated or
// ctx is done. Cancellation is checked between events, never mid-event, so
// an aborted run leaves no half-applied simulation state. The returned
// error wraps ctx.Err() so callers can test it with errors.Is.
func (s *System) RunContext(ctx context.Context) (*Result, error) {
	// The initial context executes the entry graph on the least-loaded
	// (hence first) processing element, with fresh in/out channels.
	entry := s.prog.Obj.Entry
	main, target := s.kern.CreateContext(entry, s.prog.QueueWords(entry), -1, 0, s.graphPrio(entry), 0)
	main.SetChannels(s.kern.AllocChannel(), s.kern.AllocChannel())
	s.scheduleKick(target, 0)

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sim: aborted before start: %w", err)
	}
	s.runCtx = ctx
	s.instrsToPoll = ctxPollInstrs
	s.runLoop()
	if s.err != nil {
		return nil, s.err
	}
	if !s.finished {
		return nil, &DeadlockError{Cycle: s.now, Live: s.kern.Live(), Snapshot: s.kern.Snapshot()}
	}
	if s.sampleEvery > 0 {
		// Emit any whole buckets the final events skipped over (the exit
		// trap can carry time across several boundaries at once), then
		// close the final, possibly short, bucket at the end of the run.
		for s.nextSample < s.endTime {
			s.emitSample(s.nextSample)
			s.nextSample += s.sampleEvery
		}
		s.emitSample(s.endTime)
	}
	res := &Result{
		Cycles:          s.endTime,
		NumPEs:          s.numPEs,
		Kernel:          s.kern.Stats,
		Ring:            s.bus.Stats,
		Switches:        s.switches,
		Resumes:         s.resumes,
		RolledRegisters: s.rolledRegs,
		MemReads:        s.mem.Reads,
		MemWrites:       s.mem.Writes,
	}
	if s.p.KeepData {
		res.Data = append([]int32(nil), s.mem.Words()...)
	}
	for _, m := range s.machines {
		res.PEStats = append(res.PEStats, m.Stats)
		res.Instructions += m.Stats.Instructions
	}
	for _, c := range s.caches {
		res.Cache.Sends += c.Stats.Sends
		res.Cache.Receives += c.Stats.Receives
		res.Cache.FetchPhis += c.Stats.FetchPhis
		res.Cache.Hits += c.Stats.Hits
		res.Cache.Misses += c.Stats.Misses
		res.Cache.Evictions += c.Stats.Evictions
		res.Cache.Rendezvous += c.Stats.Rendezvous
	}
	return res, nil
}

// runLoop is the sequential event loop: pop events in time and then
// schedule order and dispatch them to their handlers until the program
// finishes, the queue drains (deadlock), or an error trips. Failures land
// in s.err. Each event is popped into the loop's own e, so a handler may
// schedule freely while it reads its event.
//
// Same-cycle event fusion: when a handler schedules event B at the same
// time as the event A it scheduled just before, with no schedule call in
// between, B is fused onto A (A.then) instead of queued. The fusion is
// exact. B would directly follow A in schedule order, so no event could
// pop between them: one scheduled earlier at their time pops before A,
// one scheduled later pops after B, and nothing is ever scheduled before
// the current time. So B runs right after A's handler, as its pop would
// have, and only when the loop would have gone on to pop it: with no
// error tripped and the program not finished. The one observer of B's
// absence from the queue is A's own handler, and only a step looks at the
// queue; handleStep therefore batches a step that carries a follow-up
// against the horizon now, where the queued B would have put it. With
// Params.NoBatch nothing is fused, so the batching oracle runs every event
// through the queue.
func (s *System) runLoop() {
	var (
		polled uint
		e      event
	)
	for s.q.len() > 0 && !s.finished && s.err == nil {
		if polled++; polled%ctxPollEvents == 0 {
			if err := s.runCtx.Err(); err != nil {
				s.fail(fmt.Errorf("sim: aborted at cycle %d: %w", s.now, err))
				return
			}
		}
		s.q.pop(&e)
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
			s.handleStep(&e)
		case evChanReq:
			s.handleChanReq(&e)
		case evRecvDone:
			s.handleRecvDone(&e)
		case evSendDone:
			s.sendDone(int(e.pe), int(e.ctx))
		case evWake:
			s.handleWake(&e)
		case evKick:
			s.dispatch(int(e.pe))
		}
		if e.then != thenNone {
			s.followUp(&e)
		}
	}
}

// followUp runs the event fused onto e, which has just been handled, if
// the loop would have gone on to pop it: no error has tripped and the
// program has not finished.
func (s *System) followUp(e *event) {
	if s.err != nil || s.finished {
		return
	}
	switch e.then {
	case thenKick:
		s.dispatch(int(e.src))
	case thenSendDone:
		s.sendDone(int(e.src), int(e.sctx()))
	}
}

// schedule queues an event of the given kind for processing element peID
// and context ctx at t, after every event already queued at t, and returns
// it, written in its queue slot, for the caller to fill in the rest of its
// payload. The pointer is valid only until the next schedule call.
func (s *System) schedule(t int64, kind eventKind, peID, ctx int32) *event {
	return s.q.push(t, kind, peID, ctx)
}

func (s *System) scheduleKick(peID int, t int64) {
	s.schedule(t, evKick, int32(peID), 0)
}

// scheduleThen schedules the follow-up then, on processing element src
// (for context sctx, a thenSendDone's sender), right after e, which the
// caller has just scheduled and filled in: fused onto e, or as an event
// of its own when fusion is off. e must not be used afterwards.
func (s *System) scheduleThen(e *event, then followUp, src, sctx int32) {
	if s.fuse {
		e.then, e.src = then, src
		if then == thenSendDone {
			e.ch = sctx
		}
		return
	}
	switch then {
	case thenKick:
		s.scheduleKick(int(src), e.time)
	case thenSendDone:
		s.schedule(e.time, evSendDone, src, sctx)
	}
}

func (s *System) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// emitSample snapshots the machine-wide counters for the recorder's Sample
// hook. Only runs when a sampling recorder is installed; cost is O(numPEs)
// per boundary.
func (s *System) emitSample(at int64) {
	ms := trace.MachineSample{
		NumPEs:         s.numPEs,
		LiveContexts:   s.kern.Live(),
		RingMessages:   s.bus.Stats.Messages,
		RingWaitCycles: s.bus.Stats.WaitCycles,
	}
	for p := 0; p < s.numPEs; p++ {
		ms.ReadyContexts += s.kern.ReadyCount(p)
		if s.running[p] != nil {
			ms.RunningPEs++
		}
		st := &s.machines[p].Stats
		ms.BusyCycles += st.Cycles
		ms.Instructions += st.Instructions
		ms.QueueSum += st.QueueSum
		ms.CacheHits += s.caches[p].Stats.Hits
		ms.CacheMisses += s.caches[p].Stats.Misses
	}
	s.rec.Sample(at, ms)
}

// graphPrio is the static dispatch priority of a graph's contexts: the
// compiler-emitted §4.5 cost-analysis weight, clamped into the context's
// 32-bit priority field. Zero for weightless (hand-written) objects.
func (s *System) graphPrio(gi int) int32 {
	w := s.prog.Obj.Graphs[gi].Weight
	if w > 1<<31-1 {
		w = 1<<31 - 1
	}
	return int32(w)
}

// dispatch starts the next ready context on an idle processing element,
// charging the context-switch or resume cost. A context the policy stole
// from another element additionally pays its migration: one ring transfer
// for the hand-off plus the roll-out of any window registers it still had
// loaded on the victim — a stolen context can never resume warm.
func (s *System) dispatch(peID int) {
	if s.running[peID] != nil {
		return
	}
	c, from := s.kern.NextReady(peID)
	if c == nil {
		return
	}
	s.running[peID] = c
	var cost int64
	resumed := from == peID && s.lastCtx[peID] == c
	if resumed {
		// The context's window registers are still loaded.
		cost = s.p.Resume
		s.resumes++
	} else {
		cost = int64(s.p.PE.SwitchBase) + int64(s.p.PE.ReadyScan)*int64(s.kern.Resident(peID))
		if prev := s.lastCtx[peID]; prev != nil && prev != c {
			n := prev.RollOut()
			cost += int64(s.p.PE.RollOut) * int64(n)
			s.rolledRegs += int64(n)
		}
		if from != peID {
			// Migration: the context's queue-page hand-off crosses the
			// ring under the ordinary contention model, and its window
			// state on the victim element rolls out.
			n := c.RollOut()
			cost += int64(s.p.PE.RollOut) * int64(n)
			s.rolledRegs += int64(n)
			cost += s.bus.Transfer(s.now, from, peID) - s.now
			if s.lastCtx[from] == c {
				// The victim no longer holds the context's registers; a
				// dangling pointer here could alias a recycled context.
				s.lastCtx[from] = nil
			}
		}
		s.switches++
	}
	s.lastCtx[peID] = c
	if s.rec != nil {
		s.rec.BeginRun(peID, c.ID, s.now+cost, cost, resumed)
	}
	s.schedule(s.now+cost, evStep, int32(peID), int32(c.ID))
}

// handleStep executes the running context's next instruction — and, when
// the run is straight-line, every following instruction whose issue time
// stays strictly below the queue's next-event horizon. The batch is exact,
// not an approximation: a running context can only be unseated by its own
// blocking action (dispatch fills idle processing elements only), so the
// per-instruction evStep events the old loop round-tripped through the
// heap were a private countdown with no observers. An instruction whose
// issue time reaches the horizon is deferred back through the queue,
// because a queued event with the same time was scheduled earlier and must
// run first; this reproduces the queue's pop order — and with it every
// recorder hook, sample boundary, and watchdog trip — bit-identically.
func (s *System) handleStep(e *event) {
	c := s.running[e.pe]
	if c == nil || c.ID != int(e.ctx) {
		return // stale event after a switch
	}
	m := s.machines[e.pe]
	horizon := s.q.peekTime()
	if s.p.NoBatch || e.then != thenNone {
		// Every step reaches the horizon: event-per-step. A step carrying
		// a follow-up stops here too, since unfused the follow-up would
		// sit in the queue at now.
		horizon = s.now
	}
	for {
		s.instructions++
		if s.instructions > s.p.MaxInstructions {
			s.fail(fmt.Errorf("sim: exceeded %d instructions", s.p.MaxInstructions))
			return
		}
		cycles, act := m.Exec(c, s.now)
		t := s.now + int64(cycles)
		switch act {
		case pe.ActNone:
			// Straight-line: fall through to the batch continuation test.
		case pe.ActSend:
			c.Status = pe.BlockedSend
			s.running[e.pe] = nil
			if s.rec != nil {
				s.rec.EndRun(int(e.pe), c.ID, t, trace.EndBlockedSend)
			}
			s.routeChanOp(t, int(e.pe), opSend, m.Ch, m.Val, c.ID)
			return
		case pe.ActRecv:
			c.Status = pe.BlockedRecv
			s.running[e.pe] = nil
			if s.rec != nil {
				s.rec.EndRun(int(e.pe), c.ID, t, trace.EndBlockedRecv)
			}
			s.routeChanOp(t, int(e.pe), opRecv, m.Ch, 0, c.ID)
			return
		case pe.ActTrap:
			s.handleTrap(int(e.pe), c, m.Code, m.Arg, t)
			return
		case pe.ActFault:
			s.fail(m.Err)
			return
		}
		if t >= horizon {
			s.schedule(t, evStep, e.pe, int32(c.ID))
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

// routeChanOp forwards a channel operation to the channel's home message
// processor, over the ring when remote, and kicks the requesting
// processing element, which the blocked context has left idle. A local
// request carries the kick: both are due at t. Only channels the kernel
// has allocated are valid; the message caches size their tables to them.
func (s *System) routeChanOp(t int64, fromPE int, op chanOp, ch, val int32, ctxID int) {
	if !s.kern.Allocated(ch) {
		s.fail(fmt.Errorf("sim: context %d uses invalid channel %d", ctxID, ch))
		return
	}
	home := int(ch) % s.numPEs
	at := t
	if home != fromPE {
		at = s.bus.Transfer(t, fromPE, home)
	}
	req := s.schedule(at, evChanReq, int32(home), int32(ctxID))
	req.op, req.ch, req.val, req.src = op, ch, val, int32(fromPE)
	if home == fromPE {
		s.scheduleThen(req, thenKick, int32(fromPE), 0)
		return
	}
	s.scheduleKick(fromPE, t)
}

func (s *System) handleChanReq(e *event) {
	home := int(e.pe)
	start := max(s.now, s.mpFree[home])
	requester := mcache.ContextRef{PE: int(e.src), Ctx: int(e.ctx)}
	var (
		done   *mcache.Completion
		missed bool
		err    error
	)
	if e.op == opSend {
		done, missed, err = s.caches[home].Send(e.ch, e.val, requester)
	} else {
		done, missed, err = s.caches[home].Recv(e.ch, requester)
	}
	if err != nil {
		s.fail(err)
		return
	}
	cost := s.p.MPCycles
	if missed {
		cost += s.p.MPMissPenalty
	}
	finish := start + cost
	s.mpFree[home] = finish
	if s.rec != nil {
		op := trace.ChanSend
		if e.op == opRecv {
			op = trace.ChanRecv
		}
		sctx, rctx := -1, -1
		if done != nil {
			sctx, rctx = done.Sender.Ctx, done.Receiver.Ctx
		}
		s.rec.MsgOp(home, e.ch, op, start, finish, !missed, done != nil, sctx, rctx)
	}
	if done == nil {
		return // party parked in the cache until its partner arrives
	}
	// Deliver the value to the receiver and the acknowledgement to the
	// sender, over the ring when remote. When both arrive in the same
	// cycle the acknowledgement rides on the delivery.
	rArrive := finish
	if done.Receiver.PE != home {
		rArrive = s.bus.Transfer(finish, home, done.Receiver.PE)
	}
	sArrive := finish
	if done.Sender.PE != home {
		sArrive = s.bus.Transfer(finish, home, done.Sender.PE)
	}
	recv := s.schedule(rArrive, evRecvDone, int32(done.Receiver.PE), int32(done.Receiver.Ctx))
	recv.val = done.Value
	if sArrive == rArrive {
		s.scheduleThen(recv, thenSendDone, int32(done.Sender.PE), int32(done.Sender.Ctx))
		return
	}
	s.schedule(sArrive, evSendDone, int32(done.Sender.PE), int32(done.Sender.Ctx))
}

func (s *System) handleRecvDone(e *event) {
	c, err := s.kern.Context(int(e.ctx))
	if err != nil {
		s.fail(err)
		return
	}
	if err := s.machines[e.pe].Complete(c, e.val); err != nil {
		s.fail(err)
		return
	}
	if err := s.kern.Ready(c.ID, s.now); err != nil {
		s.fail(err)
		return
	}
	s.dispatch(int(e.pe))
}

// sendDone unblocks a sender whose rendezvous has completed.
func (s *System) sendDone(peID, ctxID int) {
	if err := s.kern.Ready(ctxID, s.now); err != nil {
		s.fail(err)
		return
	}
	s.dispatch(peID)
}

func (s *System) handleWake(e *event) {
	c, err := s.kern.Context(int(e.ctx))
	if err != nil {
		s.fail(err)
		return
	}
	// The wait actor's result is a control token.
	if err := s.machines[e.pe].Complete(c, isa.Bool(true)); err != nil {
		s.fail(err)
		return
	}
	if err := s.kern.Ready(c.ID, s.now); err != nil {
		s.fail(err)
		return
	}
	s.dispatch(int(e.pe))
}

func (s *System) handleTrap(peID int, c *pe.Context, code, arg int32, t int64) {
	switch code {
	case isa.KExit:
		s.running[peID] = nil
		if s.lastCtx[peID] == c {
			s.lastCtx[peID] = nil
		}
		if s.rec != nil {
			s.rec.EndRun(peID, c.ID, t, trace.EndExited)
		}
		if err := s.kern.Exit(c.ID, t); err != nil {
			s.fail(err)
			return
		}
		if s.kern.Live() == 0 {
			s.finished = true
			s.endTime = t
			return
		}
		s.scheduleKick(peID, t)

	case isa.KRFork, isa.KIFork:
		gi := int(arg)
		if gi < 0 || gi >= len(s.prog.Obj.Graphs) {
			s.fail(fmt.Errorf("sim: context %d forks unknown graph %d", c.ID, gi))
			return
		}
		child, target := s.kern.CreateContext(gi, s.prog.QueueWords(gi), c.ID, peID, s.graphPrio(gi), t)
		cin := s.kern.AllocChannel()
		var cout int32
		if code == isa.KRFork {
			s.kern.Stats.RForks++
			cout = s.kern.AllocChannel()
			if err := s.machines[peID].Complete2(c, cin, cout); err != nil {
				s.fail(err)
				return
			}
		} else {
			s.kern.Stats.IForks++
			cout = c.Out()
			if err := s.machines[peID].Complete(c, cin); err != nil {
				s.fail(err)
				return
			}
		}
		child.SetChannels(cin, cout)
		// The parent resumes and the child's element is kicked in the
		// same cycle, so the kick rides on the parent's step.
		step := s.schedule(t+s.p.ForkCycles, evStep, int32(peID), int32(c.ID))
		s.scheduleThen(step, thenKick, int32(target), 0)

	case isa.KChanNew:
		ch := s.kern.AllocChannel()
		if err := s.machines[peID].Complete(c, ch); err != nil {
			s.fail(err)
			return
		}
		s.schedule(t, evStep, int32(peID), int32(c.ID))

	case isa.KNow:
		if err := s.machines[peID].Complete(c, int32(t)); err != nil {
			s.fail(err)
			return
		}
		s.schedule(t, evStep, int32(peID), int32(c.ID))

	case isa.KWait:
		c.Status = pe.BlockedWait
		s.running[peID] = nil
		if s.rec != nil {
			s.rec.EndRun(peID, c.ID, t, trace.EndBlockedWait)
		}
		wake := max(t, int64(arg))
		s.schedule(wake, evWake, int32(peID), int32(c.ID))
		s.scheduleKick(peID, t)

	default:
		s.fail(fmt.Errorf("sim: context %d: unknown kernel entry point %d", c.ID, code))
	}
}
