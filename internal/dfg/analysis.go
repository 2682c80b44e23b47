package dfg

import (
	"math/bits"
	"slices"
	"sort"
)

// Analysis carries the per-node results of the §4.5 cost analysis: the
// predecessor set P*(v), the required input set I*(v) and the computation
// cost C(v). Node IDs index every table: P*(v) is row v.ID of a dense
// bitset matrix, and I*(v) is that row restricted to the input nodes.
type Analysis struct {
	g     *Graph
	words int      // uint64 words per row
	preds []uint64 // P*(v) rows, including v
	cost  []int    // C(v)
}

// DepthFirstList returns a list L of the graph's nodes in which every node
// precedes all of its predecessors (equivalently, all successors of a node
// precede it) — the algorithm of Figure 4.13. Starting nodes are considered
// in creation order, which reproduces the thesis's example orderings.
func (g *Graph) DepthFirstList() []*Node {
	marked := make([]bool, len(g.Nodes))
	list := make([]*Node, 0, len(g.Nodes))
	var search func(*Node)
	search = func(n *Node) {
		marked[n.ID] = true
		for _, s := range n.succs {
			if g.owns(s.to) && !marked[s.to.ID] {
				search(s.to)
			}
		}
		list = append(list, n)
	}
	for _, v := range g.Nodes {
		if !marked[v.ID] {
			search(v)
		}
	}
	return list
}

// Analyze computes P*(v), I*(v) and C(v) for every node, using the
// depth-first list exactly as in Figure 4.15: walked back to front, every
// predecessor's row is complete before its consumers OR it into theirs.
// A node's own contribution to C is its Cost field (unit if zero), so by
// default C(v) = |P*(v)| as in the thesis's example; a compiler may
// install per-operator execution times instead.
func (g *Graph) Analyze() *Analysis {
	n := len(g.Nodes)
	words := (n + 63) / 64
	a := &Analysis{g: g, words: words, preds: make([]uint64, n*words), cost: make([]int, n)}
	weighted := slices.ContainsFunc(g.Nodes, func(v *Node) bool { return v.Cost > 0 })
	list := g.DepthFirstList()
	for i := len(list) - 1; i >= 0; i-- {
		v := list[i]
		row := a.row(v)
		row[v.ID/64] |= 1 << (v.ID % 64)
		for _, e := range v.Args {
			orInto(row, a.row(e.From))
		}
		for _, p := range v.Order {
			orInto(row, a.row(p))
		}
		// Every member counts one, plus its Cost beyond one if any is set.
		c := 0
		for w, bs := range row {
			for c += bits.OnesCount64(bs); weighted && bs != 0; bs &= bs - 1 {
				c += max(g.Nodes[w*64+bits.TrailingZeros64(bs)].Cost, 1) - 1
			}
		}
		a.cost[v.ID] = c
	}
	return a
}

func orInto(dst, src []uint64) {
	for i, w := range src {
		dst[i] |= w
	}
}

// row returns P*(v) as a bitset, or nil for a node of another graph.
func (a *Analysis) row(v *Node) []uint64 {
	if !a.g.owns(v) {
		return nil
	}
	return a.preds[v.ID*a.words : (v.ID+1)*a.words]
}

// members lists the nodes of a row in creation order, only the input
// nodes if inputs is set.
func (a *Analysis) members(row []uint64, inputs bool) []*Node {
	out := []*Node{}
	for w, bs := range row {
		for ; bs != 0; bs &= bs - 1 {
			if n := a.g.Nodes[w*64+bits.TrailingZeros64(bs)]; n.IsInput || !inputs {
				out = append(out, n)
			}
		}
	}
	return out
}

// PredecessorSet returns P*(v) as a slice in creation order.
func (a *Analysis) PredecessorSet(v *Node) []*Node { return a.members(a.row(v), false) }

// RequiredInputs returns I*(v) as a slice in creation order.
func (a *Analysis) RequiredInputs(v *Node) []*Node { return a.members(a.row(v), true) }

// Cost returns C(v).
func (a *Analysis) Cost(v *Node) int {
	if !a.g.owns(v) {
		return 0
	}
	return a.cost[v.ID]
}

// InputWeight computes W(v) = Σ_{u : v ∈ I*(u)} C(u) for an input node v —
// the total cost of all computations that require v (Figure 4.16).
func (a *Analysis) InputWeight(v *Node) int {
	if !v.IsInput {
		return 0
	}
	return a.DescendantCost(v)
}

// InputOrder returns the graph's input nodes in a sequence satisfying the
// π_I relation: inputs that enable more downstream computation come first
// (descending W(v), ties broken by creation order). This is the heuristic
// intercontext-communication order of §4.5: sending a context its operands
// in this order maximizes the work it can do before waiting for the next
// one.
func (a *Analysis) InputOrder() []*Node {
	inputs := a.g.Inputs()
	sort.SliceStable(inputs, func(i, j int) bool {
		return a.InputWeight(inputs[i]) > a.InputWeight(inputs[j])
	})
	return inputs
}

// DescendantCost reports Σ C(u) over all nodes u whose predecessor set
// contains v — the total computation enabled by v. For input nodes this is
// exactly the π_I weight W(v); the general form also serves graphs whose
// external inputs are modelled as receive operators rather than IsInput
// nodes.
func (a *Analysis) DescendantCost(v *Node) int {
	if !a.g.owns(v) {
		return 0
	}
	w := 0
	word, bit := v.ID/64, uint64(1)<<(v.ID%64)
	for u, c := range a.cost {
		if a.preds[u*a.words+word]&bit != 0 {
			w += c
		}
	}
	return w
}
