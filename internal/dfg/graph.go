// Package dfg implements the acyclic data-flow graphs of the thesis: the
// formal model of §3.6 under which such graphs are generators of valid
// indexed-queue-machine instruction sequences, and the compiler-side
// analyses of §§4.4–4.7 (predecessor/cost analysis, input sequencing by the
// π_I relation, control-token sequencing of side effects, and the
// priority-heuristic instruction sequencer of Figure 4.20).
package dfg

import "fmt"

// Node is a vertex of an acyclic data-flow graph. A node is either an
// input (a value delivered to the graph from outside — IsInput true, no
// arguments) or an operator with arity len(Args).
//
// Almost all operators produce a single result; the context-generating
// rfork actor produces two (the in and out channel identifiers of the new
// context), so edges identify the producer's result port.
type Node struct {
	ID      int
	Op      string
	IsInput bool
	Args    []Edge
	Results int // number of result ports; 0 is normalized to 1

	// Order lists control-token predecessors (§4.6): arcs that sequence
	// side-effecting actors. They constrain every ordering produced from
	// the graph but carry no operands — "they do not appear in the queue
	// machine instruction sequence derived from the data-flow graph".
	Order []*Node

	// Aux carries operator-specific payload assigned by the front end:
	// a constant value, a variable or channel name, a target graph index
	// for fork actors, and so on. The dfg analyses never interpret it.
	Aux any

	// Cost is the execution cost of the node itself used by the C(v)
	// analysis; zero means unit cost.
	Cost int

	succs []succ // maintained by Graph.addEdge
}

// Edge identifies one operand of a node: a producer node and the producer's
// result port.
type Edge struct {
	From *Node
	Port int
}

type succ struct {
	to    *Node
	port  int // producer result port feeding the successor
	arg   int // which operand slot of the successor
	order bool
}

// Arity reports A(v), the number of operands of the node.
func (n *Node) Arity() int { return len(n.Args) }

// resultPorts reports the number of result ports, normalizing zero to one.
func (n *Node) resultPorts() int {
	if n.Results <= 0 {
		return 1
	}
	return n.Results
}

func (n *Node) String() string {
	if n == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s#%d", n.Op, n.ID)
}

// Graph is an acyclic data-flow graph under construction or analysis. Nodes
// are recorded in creation order, which also serves as the deterministic
// tie-break order for every analysis and scheduler in this package. A
// node's ID is its index in Nodes, so the analyses keep their per-node
// state in ID-indexed slices.
type Graph struct {
	Nodes []*Node
}

// owns reports whether n is a node of g.
func (g *Graph) owns(n *Node) bool {
	return n != nil && n.ID >= 0 && n.ID < len(g.Nodes) && g.Nodes[n.ID] == n
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Input adds an input node (a value supplied to the graph from outside).
func (g *Graph) Input(op string) *Node {
	n := &Node{ID: len(g.Nodes), Op: op, IsInput: true}
	g.Nodes = append(g.Nodes, n)
	return n
}

// AddOp adds an operator node whose operands are the first result ports of
// the given argument nodes.
func (g *Graph) AddOp(op string, args ...*Node) *Node {
	edges := make([]Edge, len(args))
	for i, a := range args {
		edges[i] = Edge{From: a}
	}
	return g.AddOpEdges(op, edges...)
}

// AddOpEdges adds an operator node with explicit operand edges, allowing a
// specific result port of a multi-result producer to be consumed.
func (g *Graph) AddOpEdges(op string, args ...Edge) *Node {
	n := &Node{ID: len(g.Nodes), Op: op, Args: args}
	for i, e := range args {
		e.From.succs = append(e.From.succs, succ{to: n, port: e.Port, arg: i})
	}
	g.Nodes = append(g.Nodes, n)
	return n
}

// AddOrder installs control-token arcs: node n may not execute before every
// node in preds. Duplicate and self arcs are ignored.
func (g *Graph) AddOrder(n *Node, preds ...*Node) {
	for _, p := range preds {
		if p == nil || p == n {
			continue
		}
		dup := false
		for _, existing := range n.Order {
			if existing == p {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		n.Order = append(n.Order, p)
		p.succs = append(p.succs, succ{to: n, order: true})
	}
}

// Successors returns the nodes consuming any result of v, in a
// deterministic order, without duplicates.
func (g *Graph) Successors(v *Node) []*Node {
	var out []*Node
	seen := make([]bool, len(g.Nodes))
	for _, s := range v.succs {
		if g.owns(s.to) && !seen[s.to.ID] {
			seen[s.to.ID] = true
			out = append(out, s.to)
		}
	}
	return out
}

// Predecessors returns P(v): the distinct producers feeding v through
// operand or control-token arcs.
func (g *Graph) Predecessors(v *Node) []*Node {
	var out []*Node
	seen := map[*Node]bool{}
	for _, e := range v.Args {
		if !seen[e.From] {
			seen[e.From] = true
			out = append(out, e.From)
		}
	}
	for _, p := range v.Order {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// Validate checks the well-formedness conditions of the §3.6/§4.5
// definitions: inputs have no operand arcs, every operand edge references a
// node of this graph and a valid result port, and the graph is acyclic.
func (g *Graph) Validate() error {
	for _, n := range g.Nodes {
		if n.IsInput && len(n.Args) > 0 {
			return fmt.Errorf("dfg: input node %s has %d operand arcs", n, len(n.Args))
		}
		for _, p := range n.Order {
			if !g.owns(p) {
				return fmt.Errorf("dfg: node %s has a foreign control-token arc from %s", n, p)
			}
		}
		for i, e := range n.Args {
			if e.From == nil {
				return fmt.Errorf("dfg: node %s operand %d is nil", n, i)
			}
			if !g.owns(e.From) {
				return fmt.Errorf("dfg: node %s operand %d references a foreign node %s", n, i, e.From)
			}
			if e.Port < 0 || e.Port >= e.From.resultPorts() {
				return fmt.Errorf("dfg: node %s operand %d uses result port %d of %s (has %d)",
					n, i, e.Port, e.From, e.From.resultPorts())
			}
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns a sequence of the graph's nodes satisfying the π_G
// partial order (every node after all of its predecessors), breaking ties by
// node creation order. It reports an error if the graph contains a cycle.
func (g *Graph) TopoOrder() ([]*Node, error) {
	// Kahn's algorithm; order doubles as the FIFO ready list, seeded in
	// creation order for determinism. A queued node's in-degree becomes -1,
	// so a producer with several arcs to it queues it once, at the first.
	indeg := make([]int, len(g.Nodes))
	order := make([]*Node, 0, len(g.Nodes))
	for i, n := range g.Nodes {
		if indeg[i] = len(n.Args) + len(n.Order); indeg[i] == 0 {
			indeg[i] = -1
			order = append(order, n)
		}
	}
	for head := 0; head < len(order); head++ {
		n := order[head]
		for _, s := range n.succs {
			if g.owns(s.to) {
				indeg[s.to.ID]--
			}
		}
		for _, s := range n.succs {
			if g.owns(s.to) && indeg[s.to.ID] == 0 {
				indeg[s.to.ID] = -1
				order = append(order, s.to)
			}
		}
	}
	if len(order) != len(g.Nodes) {
		return nil, fmt.Errorf("dfg: graph contains a cycle (%d of %d nodes ordered)", len(order), len(g.Nodes))
	}
	return order, nil
}

// Reaches reports whether the π_G relation v π_G w holds: v == w or there
// is a directed path from v to w.
func (g *Graph) Reaches(v, w *Node) bool {
	seen := make([]bool, len(g.Nodes))
	var walk func(*Node) bool
	walk = func(n *Node) bool {
		if n == w {
			return true
		}
		if !g.owns(n) || seen[n.ID] {
			return false
		}
		seen[n.ID] = true
		for _, s := range n.succs {
			if walk(s.to) {
				return true
			}
		}
		return false
	}
	return walk(v)
}

// Inputs returns the graph's input nodes in creation order.
func (g *Graph) Inputs() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.IsInput {
			out = append(out, n)
		}
	}
	return out
}
