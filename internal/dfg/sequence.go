package dfg

import (
	"fmt"

	"queuemachine/internal/queue"
)

// SeqEntry is one instruction of a generated indexed-queue-machine sequence:
// a graph node together with its result index sets, one per result port.
// Offsets are relative to the front of the operand queue after the entry's
// own operands have been removed, exactly as in the §3.5 execution model.
type SeqEntry struct {
	Node    *Node
	Offsets [][]int
}

// Sequence is a complete generated instruction sequence for one graph.
type Sequence struct {
	Entries []SeqEntry
	// MaxQueue is the deepest queue index the sequence touches; the
	// operand queue page must have at least MaxQueue+1 slots.
	MaxQueue int
}

// GenerateSequence turns a node ordering that satisfies π_G (as produced by
// Schedule or TopoOrder) into a valid indexed-queue-machine instruction
// sequence, following the §3.6 construction:
//
//	o_j = Σ_{k<j} A(v_k)                     (absolute operand positions)
//	for every edge (v_i, v_j, l): o_j + l ∈ P_i   (result index sets)
//
// The returned offsets are converted to the execution-time form (relative to
// the queue front after operand removal). GenerateSequence verifies that the
// order covers every node exactly once and respects the partial order.
func (g *Graph) GenerateSequence(order []*Node) (*Sequence, error) {
	if len(order) != len(g.Nodes) {
		return nil, fmt.Errorf("dfg: order covers %d of %d nodes", len(order), len(g.Nodes))
	}
	// pos[id] is the order position of node id, -1 while unplaced. A
	// node of another graph takes no position, so the node it displaces
	// is reported missing.
	pos := make([]int, len(g.Nodes))
	for i := range pos {
		pos[i] = -1
	}
	for i, n := range order {
		if !g.owns(n) {
			continue
		}
		if pos[n.ID] >= 0 {
			return nil, fmt.Errorf("dfg: node %s appears twice in order", n)
		}
		pos[n.ID] = i
	}
	at := func(n *Node) int {
		if !g.owns(n) {
			return -1
		}
		return pos[n.ID]
	}
	// Absolute operand base positions o_i.
	o := make([]int, len(order)+1)
	for i, n := range order {
		o[i+1] = o[i] + n.Arity()
	}
	entries := make([]SeqEntry, len(order))
	maxIdx := -1
	for i, n := range order {
		entries[i] = SeqEntry{Node: n, Offsets: make([][]int, n.resultPorts())}
		if n.Arity() > 0 && o[i]+n.Arity()-1 > maxIdx {
			maxIdx = o[i] + n.Arity() - 1
		}
	}
	// Distribute result indices: for each consumer operand slot, the
	// producing entry records the slot's absolute position, converted to
	// a front-relative offset.
	for _, n := range g.Nodes {
		j := pos[n.ID]
		if j < 0 {
			return nil, fmt.Errorf("dfg: node %s missing from order", n)
		}
		for _, p := range n.Order {
			if at(p) >= j {
				return nil, fmt.Errorf("dfg: order violates control-token arc %s -> %s", p, n)
			}
		}
		for l, e := range n.Args {
			i := at(e.From)
			if i < 0 {
				return nil, fmt.Errorf("dfg: node %s missing from order", e.From)
			}
			if i >= j {
				return nil, fmt.Errorf("dfg: order violates π_G: %s scheduled at %d after consumer %s at %d",
					e.From, i, n, j)
			}
			abs := o[j] + l
			rel := abs - (o[i] + order[i].Arity())
			if rel < 0 {
				return nil, fmt.Errorf("dfg: negative result offset %d for edge %s -> %s", rel, e.From, n)
			}
			entries[i].Offsets[e.Port] = append(entries[i].Offsets[e.Port], rel)
			if abs > maxIdx {
				maxIdx = abs
			}
		}
	}
	return &Sequence{Entries: entries, MaxQueue: maxIdx}, nil
}

// Semantics supplies an evaluation function for an operator node. Inputs
// are evaluated with no arguments (args is empty); the function must return
// one value per result port.
type Semantics func(n *Node, args []int64) ([]int64, error)

// Eval evaluates the graph directly in topological order with the given
// semantics, returning every node's result values. This is the reference
// against which generated sequences are verified.
func (g *Graph) Eval(sem Semantics) (map[*Node][]int64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	vals := make(map[*Node][]int64, len(order))
	for _, n := range order {
		args := make([]int64, len(n.Args))
		for i, e := range n.Args {
			src, ok := vals[e.From]
			if !ok {
				return nil, fmt.Errorf("dfg: eval order broken at %s", n)
			}
			args[i] = src[e.Port]
		}
		res, err := sem(n, args)
		if err != nil {
			return nil, fmt.Errorf("dfg: evaluating %s: %w", n, err)
		}
		if len(res) != n.resultPorts() {
			return nil, fmt.Errorf("dfg: semantics returned %d results for %s, want %d", len(res), n, n.resultPorts())
		}
		vals[n] = res
	}
	return vals, nil
}

// ToIndexed converts a generated sequence over single-result nodes into an
// abstract indexed-queue-machine program (queue.IndexedInstr) with the given
// semantics, so that the sequence can be executed on the §3.5 model.
// Multi-result nodes are rejected; they only arise in full compiler output,
// which targets the concrete ISA instead.
func (s *Sequence) ToIndexed(sem Semantics) ([]queue.IndexedInstr[int64], error) {
	out := make([]queue.IndexedInstr[int64], len(s.Entries))
	for i, e := range s.Entries {
		if e.Node.resultPorts() != 1 {
			return nil, fmt.Errorf("dfg: node %s has %d result ports; abstract model supports 1", e.Node, e.Node.resultPorts())
		}
		n := e.Node
		out[i] = queue.IndexedInstr[int64]{
			Instr: queue.Instr[int64]{
				Label: n.String(),
				Arity: n.Arity(),
				Apply: func(args []int64) (int64, error) {
					res, err := sem(n, args)
					if err != nil {
						return 0, err
					}
					return res[0], nil
				},
			},
			Offsets: e.Offsets[0],
		}
	}
	return out, nil
}
