package dfg

import (
	"fmt"
	"slices"
)

// Actor priorities for the instruction-sequencing heuristic of §4.7. Lower
// values are emitted first when several instructions are ready:
//
//  1. rfork and ifork (create parallel work as early as possible),
//  2. send (enable newly created contexts to proceed),
//  3. store and storb (shrink the operand queue early),
//  4. everything else,
//  5. fetch and fchb (grow the queue as late as possible),
//  6. recv,
//  7. wait (actors that may suspend the context go last).
func Priority(op string) int {
	switch op {
	case "rfork", "ifork":
		return 1
	case "send":
		return 2
	case "store", "storb":
		return 3
	case "fetch", "fchb":
		return 5
	case "recv":
		return 6
	case "wait":
		return 7
	default:
		return 4
	}
}

// Schedule produces an instruction sequence of the graph's nodes satisfying
// the π_G partial order using the ready-set algorithm of Figure 4.20: a set
// R of nodes whose operands are all available is maintained, and at every
// step the highest-priority ready node is emitted (ties broken by node
// creation order, for determinism). The priority function defaults to
// Priority when nil.
//
// Input nodes are scheduled like any other ready node; a compiler that has
// already ordered the graph's inputs by π_I should pin that order with
// input-chaining arcs or schedule inputs itself before calling Schedule.
func (g *Graph) Schedule(priority func(op string) int) ([]*Node, error) {
	if priority == nil {
		priority = Priority
	}
	pending := make([]int, len(g.Nodes))
	prio := make([]int, len(g.Nodes))
	var ready []*Node
	for i, n := range g.Nodes {
		prio[i] = priority(n.Op)
		if pending[i] = len(n.Args) + len(n.Order); pending[i] == 0 {
			ready = append(ready, n)
		}
	}
	out := make([]*Node, 0, len(g.Nodes))
	for len(ready) > 0 {
		// Select the highest-priority ready node; ready is kept in
		// creation order, so the first minimum wins ties.
		best := 0
		for i := 1; i < len(ready); i++ {
			if prio[ready[i].ID] < prio[ready[best].ID] {
				best = i
			}
		}
		v := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		out = append(out, v)
		for _, s := range v.succs {
			if g.owns(s.to) {
				if pending[s.to.ID]--; pending[s.to.ID] == 0 {
					i, _ := slices.BinarySearchFunc(ready, s.to.ID, func(r *Node, id int) int { return r.ID - id })
					ready = slices.Insert(ready, i, s.to)
				}
			}
		}
	}
	if len(out) != len(g.Nodes) {
		return nil, fmt.Errorf("dfg: schedule emitted %d of %d nodes; graph is cyclic or malformed", len(out), len(g.Nodes))
	}
	return out, nil
}
