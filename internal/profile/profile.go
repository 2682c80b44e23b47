// Package profile turns the trace layer's event stream into an exact
// cycle-attribution account and a dynamic critical path. The Profiler is a
// trace.Recorder: installed on a simulation it buckets every cycle of every
// processing element into a fixed cause taxonomy — execute, operand-queue
// (presence-bit) stall, context-switch overhead, fork/trap service, channel
// rendezvous waits, timer waits, and idle — so that per-PE totals sum
// exactly to the machine's makespan by construction. Message processors and
// the ring interconnect are accounted on their own lanes. The same event
// stream feeds a happens-before graph (instruction order within a context,
// fork creation edges, channel rendezvous pairings) from which Finalize
// extracts the run's critical path as an ordered chain of (context, graph
// node, cycles, cause) segments.
//
// The profiler follows the trace package's contract: it observes and never
// alters timing, so an instrumented run's cycle counts are bit-identical to
// an uninstrumented one, and a simulation built without a profiler pays
// nothing.
package profile

import (
	"fmt"
	"sort"

	"queuemachine/internal/trace"
)

// Cause is one bucket of the cycle taxonomy.
type Cause uint8

const (
	// CauseExecute: a processing element retired instruction cycles.
	CauseExecute Cause = iota
	// CauseQueueStall: operand-queue window misses — the presence-bit
	// stall of §5.2, split out of the instruction's execute cost.
	CauseQueueStall
	// CauseSwitch: context-switch and resume overhead (roll-out, ready
	// scan, window reload).
	CauseSwitch
	// CauseFork: kernel service gaps while a context occupies its
	// processing element — fork/trap handling between instructions.
	CauseFork
	// CauseSendWait: the element idled with a resident context parked in a
	// send rendezvous.
	CauseSendWait
	// CauseRecvWait: the element idled with a resident context parked in a
	// recv rendezvous.
	CauseRecvWait
	// CauseTimerWait: the element idled with a resident context sleeping
	// on the real-time clock.
	CauseTimerWait
	// CauseIdle: the element idled with no resident blocked context — no
	// work to run.
	CauseIdle

	numPECauses

	// CauseDispatchWait appears only on the critical path: a ready
	// context waited for its processing element to dispatch it.
	CauseDispatchWait
	// CauseMPService: message-processor channel-operation service.
	CauseMPService
	// CauseMPMiss: message-processor channel-cache miss service.
	CauseMPMiss
	// CauseRingTransfer: a message crossing the ring interconnect.
	CauseRingTransfer
	// CauseRingWait: ring cycles queued behind other traffic.
	CauseRingWait

	numCauses
)

var causeNames = [numCauses]string{
	CauseExecute:      "execute",
	CauseQueueStall:   "queue-stall",
	CauseSwitch:       "context-switch",
	CauseFork:         "fork-service",
	CauseSendWait:     "send-wait",
	CauseRecvWait:     "recv-wait",
	CauseTimerWait:    "timer-wait",
	CauseIdle:         "idle",
	numPECauses:       "",
	CauseDispatchWait: "dispatch-wait",
	CauseMPService:    "mp-service",
	CauseMPMiss:       "mcache-miss",
	CauseRingTransfer: "ring-transfer",
	CauseRingWait:     "ring-wait",
}

func (c Cause) String() string {
	if int(c) < len(causeNames) && causeNames[c] != "" {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", c)
}

// PECauses lists the causes that partition processing-element time; their
// per-PE totals sum exactly to the makespan.
func PECauses() []Cause {
	return []Cause{CauseExecute, CauseQueueStall, CauseSwitch, CauseFork,
		CauseSendWait, CauseRecvWait, CauseTimerWait, CauseIdle}
}

// AccountedCauses names every cause a Profile's Causes, MP and Ring maps
// can hold: the PE partition, then the message-processor and ring lanes.
// Dispatch-wait appears only on the critical path.
func AccountedCauses() []string {
	var names []string
	for _, c := range append(PECauses(), CauseMPService, CauseMPMiss, CauseRingTransfer, CauseRingWait) {
		names = append(names, c.String())
	}
	return names
}

// lane is one processing element's attribution account. Every hook that
// touches the lane advances cursor by exactly the number of cycles it
// charges, so sum(causes) == cursor at all times — the invariant the
// differential tests pin down.
type lane struct {
	cursor   int64
	occupied bool
	curCtx   int
	// Resident contexts currently parked by kind, for classifying idle
	// gaps.
	blockedSend, blockedRecv, blockedWait int
	causes                                [numPECauses]int64
}

type readyKind uint8

const (
	readyCreated readyKind = iota
	readyRendezvous
	readyTimer
)

// ready records why and when a context joined its ready queue — the
// happens-before edge the critical-path walk follows backward.
type ready struct {
	at             int64
	kind           readyKind
	ch             int32
	mpStart, mpEnd int64
	mpHit          bool
	issuer         int // context whose request completed the rendezvous
}

// segment is one occupancy of a processing element by a context.
type segment struct {
	switchStart, start, end int64
	forkCycles, stallCycles int64
	firstGraph, firstPC     int
	lastGraph, lastPC       int
	nInstr                  int64
	resumed                 bool
	reason                  trace.EndReason
}

// ctxRec is the per-context account and happens-before record.
type ctxRec struct {
	id, parent  int
	createdAt   int64
	justCreated bool
	blockedKind trace.EndReason
	blocked     bool
	blockedAt   int64
	causes      [numPECauses]int64
	// sendWait/recvWait/timerWait total the context's own blocked
	// durations (these overlap across contexts; they do not partition
	// machine time the way lane causes do).
	sendWait, recvWait, timerWait int64
	segments                      []segment
	readies                       []ready
}

type nodeKey struct {
	graph, pc int
}

type nodeAgg struct {
	op            string
	count         int64
	cycles, stall int64
}

type resumeInfo struct {
	ch             int32
	mpStart, mpEnd int64
	hit            bool
	issuer         int
}

// Profiler implements trace.Recorder, accumulating the cycle-attribution
// account and the happens-before records a critical-path walk needs. It is
// single-run state: build one per simulation and call Finalize once the run
// completes.
type Profiler struct {
	numPEs     int
	graphNames []string
	lanes      []lane
	mpService  []int64 // per message processor
	mpMiss     []int64
	ringXfer   int64
	ringWait   int64
	nodes      map[nodeKey]*nodeAgg
	ctxs       []*ctxRec
	pendResume map[int]resumeInfo
	lastExit   int
	lastExitAt int64
}

var _ trace.Recorder = (*Profiler)(nil)

// New builds a profiler for a machine with numPEs processing elements.
func New(numPEs int) *Profiler {
	p := &Profiler{
		numPEs:     numPEs,
		lanes:      make([]lane, numPEs),
		mpService:  make([]int64, numPEs),
		mpMiss:     make([]int64, numPEs),
		nodes:      make(map[nodeKey]*nodeAgg),
		pendResume: make(map[int]resumeInfo),
		lastExit:   -1,
	}
	for i := range p.lanes {
		p.lanes[i].curCtx = -1
	}
	return p
}

// SetGraphNames installs the program's graph names for node labels; without
// them nodes are labelled g0, g1, ….
func (p *Profiler) SetGraphNames(names []string) { p.graphNames = names }

func (p *Profiler) graphName(gi int) string {
	if gi >= 0 && gi < len(p.graphNames) {
		return p.graphNames[gi]
	}
	return fmt.Sprintf("g%d", gi)
}

func (p *Profiler) ctx(id int) *ctxRec {
	for id >= len(p.ctxs) {
		p.ctxs = append(p.ctxs, nil)
	}
	if p.ctxs[id] == nil {
		p.ctxs[id] = &ctxRec{id: id, parent: -1}
	}
	return p.ctxs[id]
}

// advanceTo classifies the gap between the lane's cursor and t. While a
// context occupies the element the gap is kernel fork/trap service; while
// idle it is classified by what the element is waiting for, in the priority
// recv > send > timer > nothing.
func (p *Profiler) advanceTo(l *lane, t int64) {
	d := t - l.cursor
	if d <= 0 {
		return
	}
	var cause Cause
	switch {
	case l.occupied:
		cause = CauseFork
		if l.curCtx >= 0 {
			cr := p.ctx(l.curCtx)
			cr.causes[CauseFork] += d
			if n := len(cr.segments); n > 0 {
				cr.segments[n-1].forkCycles += d
			}
		}
	case l.blockedRecv > 0:
		cause = CauseRecvWait
	case l.blockedSend > 0:
		cause = CauseSendWait
	case l.blockedWait > 0:
		cause = CauseTimerWait
	default:
		cause = CauseIdle
	}
	l.causes[cause] += d
	l.cursor = t
}

func (p *Profiler) SampleEvery() int64 { return 0 }

func (p *Profiler) BeginRun(pe, ctx int, at, switchCycles int64, resumed bool) {
	l := &p.lanes[pe]
	start := at - switchCycles
	p.advanceTo(l, start)
	if d := at - max(l.cursor, start); d > 0 {
		l.causes[CauseSwitch] += d
		p.ctx(ctx).causes[CauseSwitch] += d
		l.cursor = max(l.cursor, at)
	}
	l.occupied = true
	l.curCtx = ctx
	cr := p.ctx(ctx)
	cr.segments = append(cr.segments, segment{
		switchStart: start, start: at, end: -1,
		firstGraph: -1, firstPC: -1, lastGraph: -1, lastPC: -1,
		resumed: resumed,
	})
}

func (p *Profiler) EndRun(pe, ctx int, at int64, reason trace.EndReason) {
	l := &p.lanes[pe]
	p.advanceTo(l, at)
	l.occupied = false
	l.curCtx = -1
	cr := p.ctx(ctx)
	if n := len(cr.segments); n > 0 {
		cr.segments[n-1].end = at
		cr.segments[n-1].reason = reason
	}
	switch reason {
	case trace.EndBlockedSend:
		l.blockedSend++
	case trace.EndBlockedRecv:
		l.blockedRecv++
	case trace.EndBlockedWait:
		l.blockedWait++
	default:
		return
	}
	cr.blocked = true
	cr.blockedKind = reason
	cr.blockedAt = at
}

func (p *Profiler) Instr(pe, ctx, graph, pc int, op string, at int64, cycles, stall int) {
	l := &p.lanes[pe]
	p.advanceTo(l, at)
	end := at + int64(cycles)
	d := end - max(l.cursor, at)
	if d < 0 {
		d = 0
	}
	st := min(int64(stall), d)
	l.causes[CauseQueueStall] += st
	l.causes[CauseExecute] += d - st
	l.cursor = max(l.cursor, end)

	cr := p.ctx(ctx)
	cr.causes[CauseQueueStall] += st
	cr.causes[CauseExecute] += d - st
	if n := len(cr.segments); n > 0 {
		s := &cr.segments[n-1]
		if s.firstPC < 0 {
			s.firstGraph, s.firstPC = graph, pc
		}
		s.lastGraph, s.lastPC = graph, pc
		s.stallCycles += st
		s.nInstr++
	}

	key := nodeKey{graph, pc}
	n := p.nodes[key]
	if n == nil {
		n = &nodeAgg{op: op}
		p.nodes[key] = n
	}
	n.count++
	n.cycles += d - st
	n.stall += st
}

func (p *Profiler) ContextCreated(ctx, parent, pe int, at int64) {
	cr := p.ctx(ctx)
	cr.parent = parent
	cr.createdAt = at
	cr.justCreated = true
}

func (p *Profiler) ContextReady(ctx, pe, depth int, at int64) {
	l := &p.lanes[pe]
	if !l.occupied {
		// Classify the idle gap up to this instant under the old blocked
		// counts before the wake-up changes them.
		p.advanceTo(l, at)
	}
	cr := p.ctx(ctx)
	switch {
	case cr.justCreated:
		cr.justCreated = false
		cr.readies = append(cr.readies, ready{at: at, kind: readyCreated})
	default:
		if pr, ok := p.pendResume[ctx]; ok {
			delete(p.pendResume, ctx)
			cr.readies = append(cr.readies, ready{
				at: at, kind: readyRendezvous,
				ch: pr.ch, mpStart: pr.mpStart, mpEnd: pr.mpEnd,
				mpHit: pr.hit, issuer: pr.issuer,
			})
		} else {
			cr.readies = append(cr.readies, ready{at: at, kind: readyTimer})
		}
	}
	if cr.blocked {
		cr.blocked = false
		wait := at - cr.blockedAt
		switch cr.blockedKind {
		case trace.EndBlockedSend:
			l.blockedSend--
			cr.sendWait += wait
		case trace.EndBlockedRecv:
			l.blockedRecv--
			cr.recvWait += wait
		case trace.EndBlockedWait:
			l.blockedWait--
			cr.timerWait += wait
		}
	}
}

func (p *Profiler) ContextExited(ctx, pe int, at int64) {
	if at >= p.lastExitAt {
		p.lastExitAt = at
		p.lastExit = ctx
	}
}

func (p *Profiler) MsgOp(pe int, ch int32, op trace.ChanOp, start, end int64, hit, completed bool, sendCtx, recvCtx int) {
	if hit {
		p.mpService[pe] += end - start
	} else {
		p.mpMiss[pe] += end - start
	}
	if !completed {
		return
	}
	// The completing operation is the issuer's own request being served;
	// its partner has been parked in the cache since earlier.
	issuer := sendCtx
	if op == trace.ChanRecv {
		issuer = recvCtx
	}
	info := resumeInfo{ch: ch, mpStart: start, mpEnd: end, hit: hit, issuer: issuer}
	p.pendResume[sendCtx] = info
	p.pendResume[recvCtx] = info
}

func (p *Profiler) RingTransfer(from, to int, start, end, wait int64) {
	p.ringWait += wait
	p.ringXfer += end - start - wait
}

func (p *Profiler) Sample(at int64, s trace.MachineSample) {}

// Finalize closes every lane at the makespan and builds the Profile. The
// per-PE cause totals each sum exactly to makespan — every hook charged
// precisely the cycles it advanced its lane's cursor by, and the trailing
// gap is filled here — so the machine-wide PE attribution sums to
// numPEs × makespan.
func (p *Profiler) Finalize(makespan int64) *Profile {
	prof := &Profile{
		Cycles: makespan,
		PEs:    p.numPEs,
		Causes: map[string]int64{},
		MP:     map[string]int64{},
		Ring:   map[string]int64{},
		perPE:  make([][numPECauses]int64, p.numPEs),
	}
	for i := range p.lanes {
		l := &p.lanes[i]
		p.advanceTo(l, makespan)
		prof.perPE[i] = l.causes
		m := map[string]int64{}
		for c := Cause(0); c < numPECauses; c++ {
			if l.causes[c] != 0 {
				prof.Causes[c.String()] += l.causes[c]
				m[c.String()] = l.causes[c]
			}
		}
		prof.PerPE = append(prof.PerPE, m)
	}
	var mpSvc, mpMiss int64
	for i := 0; i < p.numPEs; i++ {
		mpSvc += p.mpService[i]
		mpMiss += p.mpMiss[i]
	}
	if mpSvc != 0 {
		prof.MP[CauseMPService.String()] = mpSvc
	}
	if mpMiss != 0 {
		prof.MP[CauseMPMiss.String()] = mpMiss
	}
	if p.ringXfer != 0 {
		prof.Ring[CauseRingTransfer.String()] = p.ringXfer
	}
	if p.ringWait != 0 {
		prof.Ring[CauseRingWait.String()] = p.ringWait
	}
	prof.mpService, prof.mpMiss = p.mpService, p.mpMiss

	for key, n := range p.nodes {
		prof.Nodes = append(prof.Nodes, NodeProfile{
			Graph:  p.graphName(key.graph),
			PC:     key.pc,
			Op:     n.op,
			Count:  n.count,
			Cycles: n.cycles,
			Stall:  n.stall,
		})
	}
	sortNodes(prof.Nodes)

	prof.ContextCount = 0
	for _, cr := range p.ctxs {
		if cr != nil {
			prof.ContextCount++
		}
	}
	prof.Contexts = p.topContexts(maxReportedContexts)
	prof.CriticalPath = p.criticalPath(makespan)
	return prof
}

// maxReportedContexts bounds the per-context table in the serialized
// profile; runs fork thousands of contexts and the long tail says nothing.
const maxReportedContexts = 32

func (p *Profiler) topContexts(limit int) []ContextProfile {
	var out []ContextProfile
	for _, cr := range p.ctxs {
		if cr == nil {
			continue
		}
		cp := ContextProfile{ID: cr.id, Parent: cr.parent, Causes: map[string]int64{}}
		for c := Cause(0); c < numPECauses; c++ {
			if cr.causes[c] != 0 {
				cp.Causes[c.String()] = cr.causes[c]
				cp.busy += cr.causes[c]
			}
		}
		if cr.sendWait != 0 {
			cp.Causes[CauseSendWait.String()] = cr.sendWait
		}
		if cr.recvWait != 0 {
			cp.Causes[CauseRecvWait.String()] = cr.recvWait
		}
		if cr.timerWait != 0 {
			cp.Causes[CauseTimerWait.String()] = cr.timerWait
		}
		out = append(out, cp)
	}
	sortContexts(out)
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Profile is the finished attribution account — the serialized form shared
// by qsim -json, the qmd /run response, and qbench artifacts.
type Profile struct {
	Cycles int64 `json:"cycles"`
	PEs    int   `json:"pes"`
	// Causes partitions processing-element time: its values sum exactly
	// to PEs × Cycles.
	Causes map[string]int64 `json:"causes"`
	// PerPE is the same partition per processing element; each map's
	// values sum exactly to Cycles.
	PerPE []map[string]int64 `json:"per_pe,omitempty"`
	// MP and Ring total the message processors' and interconnect's own
	// lanes (busy time only; they are not part of the PE partition).
	MP   map[string]int64 `json:"mp,omitempty"`
	Ring map[string]int64 `json:"ring,omitempty"`
	// ContextCount is the number of contexts the run created; Contexts
	// details the busiest of them. Context wait entries are blocked
	// durations and may overlap across contexts.
	ContextCount int              `json:"context_count"`
	Contexts     []ContextProfile `json:"contexts,omitempty"`
	// Nodes is the per-static-instruction account, busiest first.
	Nodes []NodeProfile `json:"nodes,omitempty"`
	// CriticalPath is the longest happens-before chain through the run.
	CriticalPath *CriticalPath `json:"critical_path,omitempty"`

	// Full-resolution per-lane data for the pprof writer.
	perPE             [][numPECauses]int64
	mpService, mpMiss []int64
}

// ContextProfile is one context's account.
type ContextProfile struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Causes map[string]int64 `json:"causes"`
	busy   int64
}

// NodeProfile is one static graph node's account.
type NodeProfile struct {
	Graph  string `json:"graph"`
	PC     int    `json:"pc"`
	Op     string `json:"op"`
	Count  int64  `json:"count"`
	Cycles int64  `json:"cycles"`
	Stall  int64  `json:"stall,omitempty"`
}

func sortNodes(ns []NodeProfile) {
	sort.Slice(ns, func(i, j int) bool {
		if a, b := ns[i].Cycles+ns[i].Stall, ns[j].Cycles+ns[j].Stall; a != b {
			return a > b
		}
		if ns[i].Graph != ns[j].Graph {
			return ns[i].Graph < ns[j].Graph
		}
		return ns[i].PC < ns[j].PC
	})
}

func sortContexts(cs []ContextProfile) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].busy != cs[j].busy {
			return cs[i].busy > cs[j].busy
		}
		return cs[i].ID < cs[j].ID
	})
}
