package dfg

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The reference implementations below are the package's original
// map-keyed analyses, kept as the oracle for the dense, ID-indexed ones:
// on random graphs every public result must agree.

type refAnalysis struct {
	g     *Graph
	preds map[*Node]map[*Node]bool
	reqIn map[*Node]map[*Node]bool
	cost  map[*Node]int
}

func refSuccessors(v *Node) []*Node {
	var out []*Node
	seen := map[*Node]bool{}
	for _, s := range v.succs {
		if !seen[s.to] {
			seen[s.to] = true
			out = append(out, s.to)
		}
	}
	return out
}

func refCountEdges(to, from *Node) int {
	c := 0
	for _, e := range to.Args {
		if e.From == from {
			c++
		}
	}
	for _, p := range to.Order {
		if p == from {
			c++
		}
	}
	return c
}

func refDepthFirstList(g *Graph) []*Node {
	marked := make(map[*Node]bool, len(g.Nodes))
	list := make([]*Node, 0, len(g.Nodes))
	var search func(*Node)
	search = func(n *Node) {
		marked[n] = true
		for _, m := range refSuccessors(n) {
			if !marked[m] {
				search(m)
			}
		}
		list = append(list, n)
	}
	for _, v := range g.Nodes {
		if !marked[v] {
			search(v)
		}
	}
	return list
}

func refAnalyze(g *Graph) *refAnalysis {
	a := &refAnalysis{
		g:     g,
		preds: make(map[*Node]map[*Node]bool, len(g.Nodes)),
		reqIn: make(map[*Node]map[*Node]bool, len(g.Nodes)),
		cost:  make(map[*Node]int, len(g.Nodes)),
	}
	list := refDepthFirstList(g)
	for i := len(list) - 1; i >= 0; i-- {
		v := list[i]
		p := map[*Node]bool{v: true}
		in := map[*Node]bool{}
		if v.IsInput {
			in[v] = true
		}
		for _, m := range g.Predecessors(v) {
			for k := range a.preds[m] {
				p[k] = true
			}
			for k := range a.reqIn[m] {
				in[k] = true
			}
		}
		a.preds[v] = p
		a.reqIn[v] = in
		c := 0
		for k := range p {
			if k.Cost > 0 {
				c += k.Cost
			} else {
				c++
			}
		}
		a.cost[v] = c
	}
	return a
}

func (a *refAnalysis) setSlice(set map[*Node]bool) []*Node {
	out := make([]*Node, 0, len(set))
	for _, n := range a.g.Nodes {
		if set[n] {
			out = append(out, n)
		}
	}
	return out
}

func (a *refAnalysis) inputWeight(v *Node) int {
	w := 0
	for _, u := range a.g.Nodes {
		if a.reqIn[u][v] {
			w += a.cost[u]
		}
	}
	return w
}

func (a *refAnalysis) descendantCost(v *Node) int {
	w := 0
	for _, u := range a.g.Nodes {
		if a.preds[u][v] {
			w += a.cost[u]
		}
	}
	return w
}

func (a *refAnalysis) inputOrder() []*Node {
	inputs := a.g.Inputs()
	sort.SliceStable(inputs, func(i, j int) bool {
		return a.inputWeight(inputs[i]) > a.inputWeight(inputs[j])
	})
	return inputs
}

func refTopoOrder(g *Graph) ([]*Node, error) {
	indeg := make(map[*Node]int, len(g.Nodes))
	for _, n := range g.Nodes {
		indeg[n] = len(n.Args) + len(n.Order)
	}
	order := make([]*Node, 0, len(g.Nodes))
	ready := make([]*Node, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		if indeg[n] == 0 {
			ready = append(ready, n)
		}
	}
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		for _, s := range refSuccessors(n) {
			indeg[s] -= refCountEdges(s, n)
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != len(g.Nodes) {
		return nil, fmt.Errorf("dfg: graph contains a cycle (%d of %d nodes ordered)", len(order), len(g.Nodes))
	}
	return order, nil
}

func refSchedule(g *Graph, priority func(op string) int) ([]*Node, error) {
	if priority == nil {
		priority = Priority
	}
	pending := make(map[*Node]int, len(g.Nodes))
	for _, n := range g.Nodes {
		pending[n] = len(n.Args) + len(n.Order)
	}
	inReady := make(map[*Node]bool, len(g.Nodes))
	var ready []*Node
	for _, n := range g.Nodes {
		if pending[n] == 0 {
			ready = append(ready, n)
			inReady[n] = true
		}
	}
	out := make([]*Node, 0, len(g.Nodes))
	for len(ready) > 0 {
		best := 0
		for i := 1; i < len(ready); i++ {
			if priority(ready[i].Op) < priority(ready[best].Op) {
				best = i
			}
		}
		v := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		out = append(out, v)
		for _, s := range refSuccessors(v) {
			pending[s] -= refCountEdges(s, v)
			if pending[s] == 0 && !inReady[s] {
				inReady[s] = true
				i := len(ready)
				for i > 0 && ready[i-1].ID > s.ID {
					i--
				}
				ready = append(ready, nil)
				copy(ready[i+1:], ready[i:])
				ready[i] = s
			}
		}
	}
	if len(out) != len(g.Nodes) {
		return nil, fmt.Errorf("dfg: schedule emitted %d of %d nodes; graph is cyclic or malformed", len(out), len(g.Nodes))
	}
	return out, nil
}

func refValidate(g *Graph) error {
	index := make(map[*Node]int, len(g.Nodes))
	for i, n := range g.Nodes {
		index[n] = i
	}
	for _, n := range g.Nodes {
		if n.IsInput && len(n.Args) > 0 {
			return fmt.Errorf("dfg: input node %s has %d operand arcs", n, len(n.Args))
		}
		for _, p := range n.Order {
			if _, ok := index[p]; !ok {
				return fmt.Errorf("dfg: node %s has a foreign control-token arc from %s", n, p)
			}
		}
		for i, e := range n.Args {
			if e.From == nil {
				return fmt.Errorf("dfg: node %s operand %d is nil", n, i)
			}
			if _, ok := index[e.From]; !ok {
				return fmt.Errorf("dfg: node %s operand %d references a foreign node %s", n, i, e.From)
			}
			if e.Port < 0 || e.Port >= e.From.resultPorts() {
				return fmt.Errorf("dfg: node %s operand %d uses result port %d of %s (has %d)",
					n, i, e.Port, e.From, e.From.resultPorts())
			}
		}
	}
	_, err := refTopoOrder(g)
	return err
}

// oracleOps covers every priority class of the §4.7 heuristic.
var oracleOps = []string{"rfork", "ifork", "send", "store", "storb", "plus", "minus",
	"const", "join", "fetch", "fchb", "recv", "wait"}

// randomDAG builds a random acyclic graph through the public API. It
// has duplicate operands, two-result producers consumed on either port,
// control-token arcs both along and against creation order, and, when
// costs is set, non-unit node costs.
func randomDAG(rng *rand.Rand, costs bool) *Graph {
	g := New()
	n := 1 + rng.Intn(150)
	for i := 0; i < n; i++ {
		if len(g.Nodes) == 0 || rng.Intn(5) == 0 {
			g.Input(fmt.Sprintf("in%d", i))
		} else {
			args := make([]Edge, rng.Intn(4))
			for a := range args {
				if a > 0 && rng.Intn(4) == 0 {
					args[a] = args[a-1] // duplicate operand
					continue
				}
				from := g.Nodes[rng.Intn(len(g.Nodes))]
				args[a] = Edge{From: from, Port: rng.Intn(from.resultPorts())}
			}
			g.AddOpEdges(oracleOps[rng.Intn(len(oracleOps))], args...)
		}
		v := g.Nodes[len(g.Nodes)-1]
		if rng.Intn(8) == 0 {
			v.Results = 2
		}
		if costs && rng.Intn(3) == 0 {
			v.Cost = rng.Intn(9) - 1
		}
	}
	// Control-token arcs, some duplicating an operand arc, some running
	// from a later node to an earlier one that does not reach it.
	for k := rng.Intn(n + 1); k > 0; k-- {
		x, y := g.Nodes[rng.Intn(n)], g.Nodes[rng.Intn(n)]
		if !g.Reaches(x, y) {
			g.AddOrder(x, y)
		}
	}
	return g
}

func compareAnalyses(t *testing.T, label string, g *Graph) {
	t.Helper()
	check := func(what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s = %v, reference %v", label, what, got, want)
		}
	}
	check("DepthFirstList", g.DepthFirstList(), refDepthFirstList(g))
	order, err := g.TopoOrder()
	refOrder, refErr := refTopoOrder(g)
	check("TopoOrder", order, refOrder)
	check("TopoOrder error", fmt.Sprint(err), fmt.Sprint(refErr))
	for _, prio := range []func(string) int{nil, func(op string) int { return len(op) % 3 }} {
		sched, err := g.Schedule(prio)
		refSched, refErr := refSchedule(g, prio)
		check("Schedule", sched, refSched)
		check("Schedule error", fmt.Sprint(err), fmt.Sprint(refErr))
	}
	check("Validate", fmt.Sprint(g.Validate()), fmt.Sprint(refValidate(g)))

	a, ra := g.Analyze(), refAnalyze(g)
	for _, v := range g.Nodes {
		check(v.String()+" Successors", g.Successors(v), refSuccessors(v))
		check(v.String()+" PredecessorSet", a.PredecessorSet(v), ra.setSlice(ra.preds[v]))
		check(v.String()+" RequiredInputs", a.RequiredInputs(v), ra.setSlice(ra.reqIn[v]))
		check(v.String()+" Cost", a.Cost(v), ra.cost[v])
		check(v.String()+" InputWeight", a.InputWeight(v), ra.inputWeight(v))
		check(v.String()+" DescendantCost", a.DescendantCost(v), ra.descendantCost(v))
	}
	check("InputOrder", a.InputOrder(), ra.inputOrder())
}

// TestAnalysesMatchReference compares every public analysis result with
// the map-keyed reference on seeded random graphs.
func TestAnalysesMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, seed%2 == 0)
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: random graph invalid: %v", seed, err)
		}
		compareAnalyses(t, fmt.Sprintf("seed %d", seed), g)
	}
}

// TestValidateMatchesReference breaks random graphs in each way Validate
// detects and compares the errors, and the orders of the cyclic ones,
// with the reference.
func TestValidateMatchesReference(t *testing.T) {
	breaks := map[string]func(rng *rand.Rand, g *Graph){
		"input with operands": func(rng *rand.Rand, g *Graph) {
			g.Nodes[len(g.Nodes)-1].IsInput = true
		},
		"foreign operand": func(rng *rand.Rand, g *Graph) {
			v := g.Nodes[len(g.Nodes)-1]
			v.Args = append(v.Args, Edge{From: New().Input("x")})
		},
		"foreign control arc": func(rng *rand.Rand, g *Graph) {
			v := g.Nodes[rng.Intn(len(g.Nodes))]
			v.Order = append(v.Order, New().Input("x"))
		},
		"nil operand": func(rng *rand.Rand, g *Graph) {
			v := g.Nodes[len(g.Nodes)-1]
			v.Args = append(v.Args, Edge{})
		},
		"bad port": func(rng *rand.Rand, g *Graph) {
			g.AddOpEdges("plus", Edge{From: g.Nodes[rng.Intn(len(g.Nodes))], Port: 2})
		},
		"cycle": func(rng *rand.Rand, g *Graph) {
			for _, x := range g.Nodes {
				for _, y := range g.Nodes {
					if x != y && g.Reaches(x, y) && rng.Intn(3) == 0 {
						g.AddOrder(x, y)
						return
					}
				}
			}
			p := g.AddOp("p")
			g.AddOrder(p, g.AddOp("q", p))
		},
	}
	for name, brk := range breaks {
		for seed := int64(1); seed <= 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := randomDAG(rng, false)
			for len(g.Nodes[len(g.Nodes)-1].Args) == 0 {
				g.AddOp("plus", g.Nodes[rng.Intn(len(g.Nodes))])
			}
			brk(rng, g)
			label := fmt.Sprintf("%s, seed %d", name, seed)
			err, refErr := g.Validate(), refValidate(g)
			if err == nil || fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("%s: Validate = %v, reference %v", label, err, refErr)
			}
			if name == "cycle" {
				compareAnalyses(t, label, g)
			}
		}
	}
}
