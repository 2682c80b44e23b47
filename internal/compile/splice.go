package compile

import (
	"fmt"
	"slices"

	"queuemachine/internal/dfg"
	"queuemachine/internal/ift"
	"queuemachine/internal/occam"
)

// childGraph is a context graph during protocol construction. Its protocol
// values are organized into transfer slots (see slots.go); the receive for
// a token slot delivers the combined completion token of every member.
type childGraph struct {
	gc       *graphCtx
	slots    []slot
	recvs    []*dfg.Node // aligned with slots
	cin      *dfg.Node
	lastRecv *dfg.Node
}

// openChild creates a context graph that begins by receiving the given
// values from its in channel, one rendezvous per slot. The receives are
// left unchained so the π_I analysis can pick their final order after the
// body is built; use openChildSlots when the order is already fixed.
func (c *compiler) openChild(name string, ins []ift.Value) *childGraph {
	return c.openChildPacked(name, packSlots(ins), false)
}

// openChildSlots creates a context graph whose input slots (and their
// order) are fixed, chaining the receives immediately.
func (c *compiler) openChildSlots(name string, slots []slot) *childGraph {
	return c.openChildPacked(name, slots, true)
}

func (c *compiler) openChildPacked(name string, slots []slot, chain bool) *childGraph {
	gc := c.newGraph(name)
	ch := &childGraph{gc: gc, slots: slots}
	if len(slots) > 0 {
		ch.cin = gc.cinNode()
		for _, sl := range slots {
			r := gc.g.AddOp("recv", ch.cin)
			ch.recvs = append(ch.recvs, r)
			gc.inRecvs = append(gc.inRecvs, r)
			for _, v := range sl {
				gc.acceptValue(v, r)
			}
		}
	}
	if chain {
		ch.chainInputs(identityPerm(len(slots)))
	}
	return ch
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// inputOrder decides the transfer order of a child's input slots: the π_I
// order (descending downstream cost, the §4.5 heuristic) unless disabled.
// It returns a permutation of slot indices.
func (c *compiler) inputOrder(ch *childGraph) []int {
	perm := identityPerm(len(ch.slots))
	if c.opts.NoInputOrder || len(ch.slots) < 2 {
		return perm
	}
	a := ch.gc.g.Analyze()
	weight := make([]int, len(ch.slots))
	for i, r := range ch.recvs {
		weight[i] = a.DescendantCost(r)
	}
	slices.SortStableFunc(perm, func(x, y int) int { return weight[y] - weight[x] })
	return perm
}

// chainInputs fixes the receive order of a child graph by the given slot
// permutation.
func (ch *childGraph) chainInputs(perm []int) {
	slots := make([]slot, len(perm))
	recvs := make([]*dfg.Node, len(perm))
	for i, p := range perm {
		slots[i], recvs[i] = ch.slots[p], ch.recvs[p]
	}
	ch.slots, ch.recvs = slots, recvs
	var prev *dfg.Node
	for _, r := range ch.recvs {
		if prev != nil {
			ch.gc.g.AddOrder(r, prev)
		}
		prev = r
	}
	ch.lastRecv = prev
	ch.gc.c.infos[ch.gc.idx].Ins = flattenSlots(ch.slots)
}

// sendOutputs emits the child's result sends on its out channel: one
// rendezvous per slot, the token slot carrying the graph's combined
// completion token. The first send carries hard order arcs after the last
// input receive and after the tail of the K chain. The receive arc exists
// because the parent holds both channel ends and sends every input before
// receiving any output, so a child answering early would deadlock against
// it. The K-chain arc exists because the parent awaits its children in a
// fixed order: a child publishing results while a program-channel
// rendezvous of its own is still pending can block a sibling the
// earlier-awaited child depends on (the channel's other end), wedging all
// three.
func (ch *childGraph) sendOutputs(outs []ift.Value) {
	gc := ch.gc
	outSlots := packSlots(outs)
	if len(outSlots) > 0 {
		cout := gc.coutNode()
		first := true
		for _, sl := range outSlots {
			s := gc.addOpImm("send", cout, gc.materializeSlot(sl, nil))
			gc.chainOn(cout, s)
			if first {
				if ch.lastRecv != nil {
					gc.g.AddOrder(s, ch.lastRecv)
				}
				if gc.lastK != nil {
					gc.g.AddOrder(s, gc.lastK)
				}
			}
			first = false
		}
	}
	gc.c.infos[gc.idx].Outs = outs
}

// spliceHandles exposes the boundary operations of one splice, so callers
// can add cross-splice ordering constraints (parallel branches must all be
// fed before any is awaited, or communicating siblings deadlock).
type spliceHandles struct {
	lastSend  *dfg.Node
	firstRecv *dfg.Node
}

// spliceTo builds the parent side of the protocol: fork the target graph,
// send one value node per input slot (in slot order), and receive the
// output slots, invoking accept for every member value of each received
// slot. The first receive carries a hard order arc after the last send —
// the receive would otherwise deadlock the context against its own unfed
// child.
//
// target is a node holding the graph index (a constant or a sel chain);
// forkOp is "rfork" or "ifork"; an ifork parent cannot receive (the out
// channel is inherited), so outs must be empty.
func (c *compiler) spliceTo(gc *graphCtx, forkOp string, target *dfg.Node,
	insNodes []*dfg.Node, outSlots []slot, accept func(ift.Value, *dfg.Node)) (*spliceHandles, error) {

	h := &spliceHandles{}
	fork := gc.addOpImm(forkOp, target)
	if forkOp == "rfork" {
		fork.Results = 2
	}
	if len(insNodes) > 0 {
		cin := gc.g.AddOpEdges("id", dfg.Edge{From: fork, Port: 0})
		for _, vn := range insNodes {
			s := gc.addOpImm("send", cin, vn)
			gc.chainOn(cin, s)
			h.lastSend = s
		}
	}
	if len(outSlots) > 0 {
		if forkOp != "rfork" {
			return nil, fmt.Errorf("compile: graph %s: ifork splice cannot receive results", gc.name)
		}
		cout := gc.g.AddOpEdges("id", dfg.Edge{From: fork, Port: 1})
		for _, sl := range outSlots {
			r := gc.g.AddOp("recv", cout)
			gc.chainOn(cout, r)
			if h.firstRecv == nil {
				h.firstRecv = r
			}
			for _, v := range sl {
				accept(v, r)
			}
		}
		if h.firstRecv != nil && h.lastSend != nil {
			gc.g.AddOrder(h.firstRecv, h.lastSend)
		}
	}
	return h, nil
}

// parentSlotNodes materializes one node per slot in the parent's frame,
// with token flavors taken from the construct entry.
func parentSlotNodes(gc *graphCtx, slots []slot, entry *ift.Entry) []*dfg.Node {
	nodes := make([]*dfg.Node, len(slots))
	for i, sl := range slots {
		nodes[i] = gc.materializeSlot(sl, entry.WritesValue)
	}
	return nodes
}

// entryAccept builds the parent-side accept function for a construct: data
// values enter the environment, tokens update the vector/IO ordering state
// with the construct's read/write flavor.
func entryAccept(gc *graphCtx, entry *ift.Entry) func(ift.Value, *dfg.Node) {
	return func(v ift.Value, node *dfg.Node) {
		gc.acceptValueFor(v, node, entry.WritesValue(v))
	}
}

// sel builds the select actor sel(c, a, b) = (a ∧ c) ∨ (b ∧ ¬c), assuming a
// canonical Boolean c; callers normalize with ne(c, 0) first.
func (gc *graphCtx) sel(cond, a, b *dfg.Node) *dfg.Node {
	if v, ok := gc.constOf(cond); ok {
		if v != 0 {
			return a
		}
		return b
	}
	and1 := gc.binNode("and", a, cond)
	notc := gc.g.AddOp("not", cond)
	and2 := gc.binNode("and", b, notc)
	return gc.binNode("or", and1, and2)
}

// normalizeBool forces a word to the canonical all-ones/all-zeros Boolean.
func (gc *graphCtx) normalizeBool(n *dfg.Node) *dfg.Node {
	if v, ok := gc.constOf(n); ok {
		if v != 0 {
			return gc.konst(-1)
		}
		return gc.konst(0)
	}
	return gc.binNode("ne", n, gc.konst(0))
}

// outsOf applies the live-value filtering policy.
func (c *compiler) outsOf(e *ift.Entry) []ift.Value {
	if c.opts.NoLiveFilter {
		return e.Outputs()
	}
	return e.LiveOutputs()
}

// ---------------------------------------------------------------------------
// while: three graphs per loop (§4.2, Figure 4.6) — the iteration graph
// receives the loop state, evaluates the condition and iforks either the
// body graph or the terminator; the body runs one iteration and iforks the
// next test; the terminator returns the live values to the original caller
// through the inherited out channel.

func (c *compiler) whileStmt(gc *graphCtx, n *occam.While) error {
	entry, err := c.table.Entry(n)
	if err != nil {
		return err
	}
	liveOuts := c.outsOf(entry)
	loopVars := dedupeValues(entry.Inputs(), liveOuts)
	base := fmt.Sprintf("w%d", n.P.Line)

	testGC := c.newGraph(base + "_test")
	bodyCh := c.openChild(base+"_body", loopVars)

	// Body first, so π_I can weigh the real computation.
	if err := c.stmt(bodyCh.gc, n.Body); err != nil {
		return err
	}
	bodyCh.chainInputs(c.inputOrder(bodyCh))
	slots := bodyCh.slots
	// Body tail: ifork the next test and forward the updated loop state.
	bodyIns := make([]*dfg.Node, len(slots))
	for i, sl := range slots {
		bodyIns[i] = bodyCh.gc.materializeSlot(sl, nil)
	}
	if _, err := c.spliceTo(bodyCh.gc, "ifork", bodyCh.gc.konst(int32(testGC.idx)), bodyIns, nil, nil); err != nil {
		return err
	}

	// Test graph: receive the state, evaluate the condition, ifork the
	// selected continuation with the same state.
	testCh := &childGraph{gc: testGC, slots: slots}
	if len(slots) > 0 {
		testCh.cin = testGC.cinNode()
		for _, sl := range slots {
			r := testGC.g.AddOp("recv", testCh.cin)
			testCh.recvs = append(testCh.recvs, r)
			testGC.inRecvs = append(testGC.inRecvs, r)
			for _, v := range sl {
				testGC.acceptValue(v, r)
			}
		}
		testCh.chainInputs(identityPerm(len(slots)))
	}
	cond, err := testGC.expr(n.Cond)
	if err != nil {
		return err
	}
	exitCh := c.openChildSlots(base+"_exit", slots)
	target := testGC.sel(testGC.normalizeBool(cond),
		testGC.konst(int32(bodyCh.gc.idx)), testGC.konst(int32(exitCh.gc.idx)))
	testIns := make([]*dfg.Node, len(slots))
	for i, sl := range slots {
		testIns[i] = testGC.materializeSlot(sl, nil)
	}
	if _, err := c.spliceTo(testGC, "ifork", target, testIns, nil, nil); err != nil {
		return err
	}

	// Terminator: return the live values on the inherited out channel.
	exitCh.sendOutputs(liveOuts)

	// Parent: rfork the first test, send the state, await the live values.
	_, err = c.spliceTo(gc, "rfork", gc.konst(int32(testGC.idx)),
		parentSlotNodes(gc, slots, entry), packSlots(liveOuts), entryAccept(gc, entry))
	return err
}

// ---------------------------------------------------------------------------
// if: one graph per branch plus a skip graph; the parent evaluates every
// guard, selects the branch graph with a sel chain, and splices to it.

func (c *compiler) ifStmt(gc *graphCtx, n *occam.If) error {
	entry, err := c.table.Entry(n)
	if err != nil {
		return err
	}
	liveOuts := c.outsOf(entry)
	ins := dedupeValues(entry.Inputs(), liveOuts)
	base := fmt.Sprintf("if%d", n.P.Line)

	var branches []*childGraph
	for k, g := range n.Branches {
		ch := c.openChild(fmt.Sprintf("%s_b%d", base, k), ins)
		if err := c.stmt(ch.gc, g.Body); err != nil {
			return err
		}
		branches = append(branches, ch)
	}

	// One shared transfer order, derived from the first branch's graph
	// (every branch packed the same ins, so the permutation applies to
	// all).
	perm := c.inputOrder(branches[0])
	for _, ch := range branches {
		ch.chainInputs(perm)
		ch.sendOutputs(liveOuts)
	}
	slots := branches[0].slots
	skip := c.openChildSlots(base+"_skip", slots)
	skip.sendOutputs(liveOuts)

	// Parent: guards in order; first true one wins; none true => skip.
	target := gc.konst(int32(skip.gc.idx))
	for k := len(n.Branches) - 1; k >= 0; k-- {
		cond, err := gc.expr(n.Branches[k].Cond)
		if err != nil {
			return err
		}
		target = gc.sel(gc.normalizeBool(cond), gc.konst(int32(branches[k].gc.idx)), target)
	}
	_, err = c.spliceTo(gc, "rfork", target,
		parentSlotNodes(gc, slots, entry), packSlots(liveOuts), entryAccept(gc, entry))
	return err
}

// ---------------------------------------------------------------------------
// proc call: the callee compiles once (pseudo-static code sharing); every
// call site rforks it, sends the arguments and free values, and receives
// the copy-outs. Recursion works because the callee's graph index and
// transfer orders are fixed before its body is compiled; for the same
// reason proc inputs use the canonical order rather than π_I.

func (c *compiler) procFor(sym *occam.Symbol) (*procInfo, error) {
	if info, ok := c.procs[sym]; ok {
		return info, nil
	}
	d := sym.Proc
	sum := c.table.Summary[sym]
	info := &procInfo{}
	var ins, outs []ift.Value
	for _, p := range d.Param {
		ins = append(ins, ift.Val(p.Sym))
		if p.Mode == occam.ParamVec {
			// The vector's control token travels with its address,
			// ordering the callee's accesses after the caller's.
			ins = append(ins, ift.VecToken(p.Sym))
		}
	}
	ins = dedupeValues(ins, sum.FreeIn)
	for _, p := range d.Param {
		switch p.Mode {
		case occam.ParamVar:
			outs = append(outs, ift.Val(p.Sym))
		case occam.ParamVec:
			outs = append(outs, ift.VecToken(p.Sym))
		}
	}
	outs = dedupeValues(outs, sum.FreeOut)
	info.ins, info.outs = ins, outs
	info.writes = sum.WritesToken
	ch := c.openChildSlots("proc_"+sym.Name, packSlots(ins))
	info.graphIdx = ch.gc.idx
	c.procs[sym] = info
	if err := c.stmt(ch.gc, d.Body); err != nil {
		return nil, err
	}
	ch.sendOutputs(outs)
	return info, nil
}

func (c *compiler) callStmt(gc *graphCtx, n *occam.Call) error {
	callee := n.Sym
	info, err := c.procFor(callee)
	if err != nil {
		return err
	}
	paramOf := map[*occam.Symbol]int{}
	for i, p := range callee.Proc.Param {
		paramOf[p.Sym] = i
	}
	// translate maps a callee-frame token to the caller's frame.
	translate := func(v ift.Value) ift.Value {
		if v.Sym != nil && v.Token {
			if pi, ok := paramOf[v.Sym]; ok {
				arg := n.Args[pi].(*occam.VarRef)
				return ift.VecToken(arg.Sym)
			}
		}
		return v
	}
	// Build one node per input slot.
	slots := packSlots(info.ins)
	insNodes := make([]*dfg.Node, len(slots))
	for i, sl := range slots {
		if len(sl) == 1 && !sl[0].Token {
			v := sl[0]
			if pi, ok := paramOf[v.Sym]; v.Sym != nil && ok {
				node, err := c.argNode(gc, callee.Proc.Param[pi], n.Args[pi])
				if err != nil {
					return fmt.Errorf("compile: %v: %w", n.P, err)
				}
				insNodes[i] = node
			} else {
				insNodes[i] = gc.value(v)
			}
			continue
		}
		// Token slot: translate members, flavored by the callee's
		// writes.
		translated := make([]ift.Value, len(sl))
		flavor := map[ift.Value]bool{}
		for j, v := range sl {
			translated[j] = translate(v)
			if info.writes[v] {
				flavor[translated[j]] = true
			}
		}
		insNodes[i] = gc.materializeTokenGroup(translated, func(tv ift.Value) bool { return flavor[tv] })
	}
	accept := func(v ift.Value, node *dfg.Node) {
		if v.Sym != nil {
			if pi, ok := paramOf[v.Sym]; ok {
				arg := n.Args[pi].(*occam.VarRef)
				if v.Token {
					gc.acceptValueFor(ift.VecToken(arg.Sym), node, info.writes[v])
				} else {
					gc.env[ift.Val(arg.Sym)] = node
				}
				return
			}
		}
		gc.acceptValueFor(v, node, info.writes[v])
	}
	_, err = c.spliceTo(gc, "rfork", gc.konst(int32(info.graphIdx)), insNodes, packSlots(info.outs), accept)
	return err
}

// argNode builds the value sent for one call argument.
func (c *compiler) argNode(gc *graphCtx, param *occam.Param, arg occam.Expr) (*dfg.Node, error) {
	switch param.Mode {
	case occam.ParamValue:
		return gc.expr(arg)
	case occam.ParamVar:
		ref := arg.(*occam.VarRef)
		return gc.value(ift.Val(ref.Sym)), nil
	case occam.ParamVec:
		ref := arg.(*occam.VarRef)
		if ref.Sym.Kind == occam.SymParamVec {
			// Forwarding our own vec parameter: pass its address on.
			return gc.value(ift.Val(ref.Sym)), nil
		}
		base, ok := c.layout[ref.Sym]
		if !ok {
			return nil, fmt.Errorf("vector %q has no layout", ref.Name)
		}
		return gc.konst(int32(base * 4)), nil
	case occam.ParamChan:
		return gc.chanValue(arg.(*occam.VarRef))
	}
	return nil, fmt.Errorf("unknown parameter mode")
}
