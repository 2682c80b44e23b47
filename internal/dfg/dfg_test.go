package dfg

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"queuemachine/internal/queue"
)

// fig414 builds the data-flow graph of Figure 4.14(a) for the statement
// e := ((a+b) * (-c)) / d, with node creation order a, b, c, d, +, -, ×, ÷, e.
func fig414() (g *Graph, nodes map[string]*Node) {
	g = New()
	a := g.Input("a")
	b := g.Input("b")
	c := g.Input("c")
	d := g.Input("d")
	plus := g.AddOp("+", a, b)
	neg := g.AddOp("-", c)
	mul := g.AddOp("×", plus, neg)
	div := g.AddOp("÷", mul, d)
	e := g.AddOp("e", div)
	return g, map[string]*Node{
		"a": a, "b": b, "c": c, "d": d,
		"+": plus, "-": neg, "×": mul, "÷": div, "e": e,
	}
}

func names(nodes []*Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Op
	}
	return out
}

// TestDepthFirstList reproduces the thesis's example list
// L = {e, ÷, ×, +, a, b, -, c, d} for the Figure 4.14 graph.
func TestDepthFirstList(t *testing.T) {
	g, _ := fig414()
	got := names(g.DepthFirstList())
	want := []string{"e", "÷", "×", "+", "a", "b", "-", "c", "d"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DepthFirstList = %v, want %v", got, want)
	}
}

// TestTable44 checks P*(v), I*(v) and C(v) against Table 4.4.
func TestTable44(t *testing.T) {
	g, n := fig414()
	a := g.Analyze()

	wantCost := map[string]int{
		"d": 1, "c": 1, "-": 2, "b": 1, "a": 1, "+": 3, "×": 6, "÷": 8, "e": 9,
	}
	for op, want := range wantCost {
		if got := a.Cost(n[op]); got != want {
			t.Errorf("C(%s) = %d, want %d", op, got, want)
		}
	}

	wantPreds := map[string][]string{
		"d": {"d"},
		"-": {"c", "-"},
		"+": {"a", "b", "+"},
		"×": {"a", "b", "c", "+", "-", "×"},
		"÷": {"a", "b", "c", "d", "+", "-", "×", "÷"},
		"e": {"a", "b", "c", "d", "+", "-", "×", "÷", "e"},
	}
	for op, want := range wantPreds {
		if got := names(a.PredecessorSet(n[op])); !reflect.DeepEqual(got, want) {
			t.Errorf("P*(%s) = %v, want %v", op, got, want)
		}
	}

	wantIn := map[string][]string{
		"d": {"d"},
		"-": {"c"},
		"+": {"a", "b"},
		"×": {"a", "b", "c"},
		"÷": {"a", "b", "c", "d"},
		"e": {"a", "b", "c", "d"},
	}
	for op, want := range wantIn {
		if got := names(a.RequiredInputs(n[op])); !reflect.DeepEqual(got, want) {
			t.Errorf("I*(%s) = %v, want %v", op, got, want)
		}
	}
}

// TestTable45 checks the input weights W(v) and the resulting π_I input
// order against Table 4.5: W(a)=27, W(b)=27, W(c)=26, W(d)=18, so the two
// suitable sequences are {a,b,c,d} and {b,a,c,d}.
func TestTable45(t *testing.T) {
	g, n := fig414()
	a := g.Analyze()
	want := map[string]int{"a": 27, "b": 27, "c": 26, "d": 18}
	for op, w := range want {
		if got := a.InputWeight(n[op]); got != w {
			t.Errorf("W(%s) = %d, want %d", op, got, w)
		}
	}
	got := names(a.InputOrder())
	if !reflect.DeepEqual(got, []string{"a", "b", "c", "d"}) {
		t.Errorf("InputOrder = %v", got)
	}
}

func TestReaches(t *testing.T) {
	g, n := fig414()
	if !g.Reaches(n["a"], n["e"]) {
		t.Error("a should reach e")
	}
	if !g.Reaches(n["a"], n["a"]) {
		t.Error("π_G must be reflexive")
	}
	if g.Reaches(n["e"], n["a"]) {
		t.Error("e must not reach a (antisymmetry would break)")
	}
	if g.Reaches(n["a"], n["c"]) || g.Reaches(n["c"], n["a"]) {
		t.Error("a and c are incomparable")
	}
}

func TestValidate(t *testing.T) {
	g, _ := fig414()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	// An input with operand arcs is rejected.
	bad := New()
	x := bad.Input("x")
	y := bad.AddOp("f", x)
	y.IsInput = true
	if err := bad.Validate(); err == nil {
		t.Error("input with args accepted")
	}

	// A cyclic graph is rejected.
	cyc := New()
	p := cyc.AddOp("p")
	q := cyc.AddOp("q", p)
	p.Args = []Edge{{From: q}}
	if err := cyc.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not detected: %v", err)
	}

	// A bad result port is rejected.
	bp := New()
	r := bp.AddOp("r")
	bp.AddOpEdges("s", Edge{From: r, Port: 3})
	if err := bp.Validate(); err == nil || !strings.Contains(err.Error(), "port") {
		t.Errorf("bad port not detected: %v", err)
	}
}

// TestSchedulePriorities checks the §4.7 heuristic: among simultaneously
// ready nodes, forks go first, then sends, then stores; fetches, receives
// and waits go last.
func TestSchedulePriorities(t *testing.T) {
	g := New()
	g.AddOp("fetch")
	g.AddOp("recv")
	g.AddOp("plus")
	g.AddOp("store")
	g.AddOp("send")
	g.AddOp("rfork")
	g.AddOp("wait")
	order, err := g.Schedule(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"rfork", "send", "store", "plus", "fetch", "recv", "wait"}
	if got := names(order); !reflect.DeepEqual(got, want) {
		t.Errorf("Schedule = %v, want %v", got, want)
	}
}

func TestScheduleRespectsDependences(t *testing.T) {
	g, n := fig414()
	order, err := g.Schedule(nil)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[*Node]int{}
	for i, v := range order {
		pos[v] = i
	}
	for _, v := range g.Nodes {
		for _, e := range v.Args {
			if pos[e.From] >= pos[v] {
				t.Errorf("%s scheduled at %d after consumer %s at %d", e.From, pos[e.From], v, pos[v])
			}
		}
	}
	_ = n
}

// arithSem gives arithmetic semantics to test graphs; inputs read from env.
func arithSem(env map[string]int64) Semantics {
	return func(n *Node, args []int64) ([]int64, error) {
		if n.IsInput {
			return []int64{env[n.Op]}, nil
		}
		switch n.Op {
		case "+":
			return []int64{args[0] + args[1]}, nil
		case "-":
			if len(args) == 1 {
				return []int64{-args[0]}, nil
			}
			return []int64{args[0] - args[1]}, nil
		case "×", "*":
			return []int64{args[0] * args[1]}, nil
		case "÷", "/":
			if args[1] == 0 {
				return []int64{0}, nil
			}
			return []int64{args[0] / args[1]}, nil
		default: // assignment/identity
			return []int64{args[0]}, nil
		}
	}
}

// TestFig36SharedSubexpression builds the Figure 3.6(b) graph for
// d := a/(a+b) + (a+b)*c — 7 nodes, with the common subexpression a+b
// computed once — generates its indexed-queue sequence and verifies it
// evaluates to the same value as direct evaluation (Table 3.4's program).
func TestFig36SharedSubexpression(t *testing.T) {
	g := New()
	a := g.Input("a")
	b := g.Input("b")
	c := g.Input("c")
	sum := g.AddOp("+", a, b)
	div := g.AddOp("÷", a, sum)
	mul := g.AddOp("×", sum, c)
	final := g.AddOp("+", div, mul)
	if len(g.Nodes) != 7 {
		t.Fatalf("graph has %d nodes, want 7", len(g.Nodes))
	}

	env := map[string]int64{"a": 6, "b": 2, "c": 5}
	order, err := g.Schedule(nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := g.GenerateSequence(order)
	if err != nil {
		t.Fatal(err)
	}
	sem := arithSem(env)
	var got int64
	recording := func(n *Node, args []int64) ([]int64, error) {
		res, err := sem(n, args)
		if err == nil && n == final {
			got = res[0]
		}
		return res, err
	}
	prog, err := seq.ToIndexed(recording)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := queue.EvalIndexed(prog); err != nil {
		t.Fatal(err)
	}
	want := env["a"]/(env["a"]+env["b"]) + (env["a"]+env["b"])*env["c"]
	if got != want {
		t.Errorf("final value = %d, want %d", got, want)
	}
	if qm := queue.MaxQueueIndex(prog); qm != seq.MaxQueue {
		t.Errorf("MaxQueue mismatch: sequence says %d, program uses %d", seq.MaxQueue, qm)
	}
}

// TestGenerateSequenceErrors exercises the validation paths.
func TestGenerateSequenceErrors(t *testing.T) {
	g, n := fig414()
	order, _ := g.TopoOrder()

	if _, err := g.GenerateSequence(order[:3]); err == nil {
		t.Error("short order accepted")
	}
	dup := append(append([]*Node{}, order...), order[0])
	if _, err := g.GenerateSequence(dup[1:]); err == nil {
		t.Error("duplicated order accepted")
	}
	// Swap a producer after its consumer.
	badOrder := append([]*Node{}, order...)
	pi, ei := -1, -1
	for i, v := range badOrder {
		if v == n["+"] {
			pi = i
		}
		if v == n["e"] {
			ei = i
		}
	}
	badOrder[pi], badOrder[ei] = badOrder[ei], badOrder[pi]
	if _, err := g.GenerateSequence(badOrder); err == nil {
		t.Error("π_G-violating order accepted")
	}
}

// TestGenerateSequenceErrorTexts pins the error GenerateSequence reports
// for each way an order can be wrong, on the Figure 4.14 graph (creation
// and topological order a, b, c, d, +, -, ×, ÷, e) with a control-token
// arc from + to -. A node of another graph is not one of g's nodes, even
// when its ID matches, so the node it displaces is reported missing.
func TestGenerateSequenceErrorTexts(t *testing.T) {
	g, n := fig414()
	g.AddOrder(n["-"], n["+"])
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(names(order), " "); got != "a b c d + - × ÷ e" {
		t.Fatalf("topological order %s", got)
	}
	twin, _ := fig414()
	with := func(edit func(o []*Node)) []*Node {
		o := append([]*Node(nil), order...)
		edit(o)
		return o
	}
	cases := []struct {
		name  string
		order []*Node
		want  string
	}{
		{"too short", order[:3], "dfg: order covers 3 of 9 nodes"},
		{"twice", with(func(o []*Node) { o[8] = o[0] }), "dfg: node a#0 appears twice in order"},
		{"another graph", with(func(o []*Node) { o[8] = twin.Nodes[8] }), "dfg: node e#8 missing from order"},
		{"missing", with(func(o []*Node) { o[2] = twin.Nodes[0] }), "dfg: node c#2 missing from order"},
		{"control-token arc", with(func(o []*Node) { o[4], o[5] = o[5], o[4] }),
			"dfg: order violates control-token arc +#4 -> -#5"},
		{"π_G", with(func(o []*Node) { o[6], o[7] = o[7], o[6] }),
			"dfg: order violates π_G: ×#6 scheduled at 7 after consumer ÷#7 at 6"},
	}
	for _, c := range cases {
		_, err := g.GenerateSequence(c.order)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
	if _, err := g.GenerateSequence(order); err != nil {
		t.Errorf("valid order: %v", err)
	}
}

// TestMultiResultSequence checks the two-port rfork actor: both channel
// identifiers get distinct result index sets.
func TestMultiResultSequence(t *testing.T) {
	g := New()
	graphPtr := g.Input("gptr")
	fork := g.AddOp("rfork", graphPtr)
	fork.Results = 2
	g.AddOpEdges("send", Edge{From: fork, Port: 0}, Edge{From: graphPtr, Port: 0})
	g.AddOpEdges("recv", Edge{From: fork, Port: 1})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	order, err := g.Schedule(nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := g.GenerateSequence(order)
	if err != nil {
		t.Fatal(err)
	}
	var forkEntry *SeqEntry
	for i := range seq.Entries {
		if seq.Entries[i].Node == fork {
			forkEntry = &seq.Entries[i]
		}
	}
	if forkEntry == nil {
		t.Fatal("fork not in sequence")
	}
	if len(forkEntry.Offsets) != 2 || len(forkEntry.Offsets[0]) != 1 || len(forkEntry.Offsets[1]) != 1 {
		t.Errorf("fork offsets = %v", forkEntry.Offsets)
	}
	if _, err := seq.ToIndexed(arithSem(nil)); err == nil {
		t.Error("ToIndexed should reject multi-result nodes")
	}
}

// TestRandomGraphSequences is the executable form of the §3.6 theorem: for
// random acyclic data-flow graphs, any priority schedule yields a valid
// indexed-queue sequence whose evaluation computes exactly the value of
// every node.
func TestRandomGraphSequences(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		env := map[string]int64{}
		nNodes := 2 + rng.Intn(40)
		ops := []string{"+", "-", "×", "id"}
		for i := 0; i < nNodes; i++ {
			if len(g.Nodes) == 0 || rng.Intn(4) == 0 {
				name := "in" + itoa(i)
				g.Input(name)
				env[name] = int64(rng.Intn(100) - 50)
				continue
			}
			op := ops[rng.Intn(len(ops))]
			arity := 2
			if op == "id" || (op == "-" && rng.Intn(2) == 0) {
				arity = 1
			}
			args := make([]*Node, arity)
			for a := range args {
				args[a] = g.Nodes[rng.Intn(len(g.Nodes))]
			}
			g.AddOp(op, args...)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sem := arithSem(env)
		want, err := g.Eval(sem)
		if err != nil {
			t.Fatalf("seed %d: Eval: %v", seed, err)
		}

		order, err := g.Schedule(nil)
		if err != nil {
			t.Fatalf("seed %d: Schedule: %v", seed, err)
		}
		seq, err := g.GenerateSequence(order)
		if err != nil {
			t.Fatalf("seed %d: GenerateSequence: %v", seed, err)
		}
		got := map[*Node]int64{}
		recording := func(n *Node, args []int64) ([]int64, error) {
			res, err := sem(n, args)
			if err == nil {
				got[n] = res[0]
			}
			return res, err
		}
		prog, err := seq.ToIndexed(recording)
		if err != nil {
			t.Fatalf("seed %d: ToIndexed: %v", seed, err)
		}
		if _, err := queue.EvalIndexed(prog); err != nil {
			t.Fatalf("seed %d: EvalIndexed: %v", seed, err)
		}
		for n, w := range want {
			if got[n] != w[0] {
				t.Fatalf("seed %d: node %s = %d, want %d", seed, n, got[n], w[0])
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for ; v > 0; v /= 10 {
		b = append([]byte{byte('0' + v%10)}, b...)
	}
	return string(b)
}

func TestTopoOrderDeterministic(t *testing.T) {
	g, _ := fig414()
	o1, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := g.TopoOrder()
	if !reflect.DeepEqual(names(o1), names(o2)) {
		t.Error("TopoOrder not deterministic")
	}
	if !reflect.DeepEqual(names(o1), []string{"a", "b", "c", "d", "+", "-", "×", "÷", "e"}) {
		t.Errorf("TopoOrder = %v", names(o1))
	}
}

func TestNodeString(t *testing.T) {
	g, _ := fig414()
	if got := g.Nodes[0].String(); got != "a#0" {
		t.Errorf("String = %q", got)
	}
	var nilNode *Node
	if nilNode.String() != "<nil>" {
		t.Error("nil node String")
	}
}

func TestEvalErrors(t *testing.T) {
	g := New()
	x := g.Input("x")
	g.AddOp("+", x, x)
	// Semantics returning the wrong number of results is caught.
	_, err := g.Eval(func(n *Node, args []int64) ([]int64, error) {
		return []int64{1, 2}, nil
	})
	if err == nil {
		t.Error("wrong result count accepted")
	}
}

// TestControlTokenArcs reproduces the Figure 4.19 discipline: reads of an
// array may execute in any order, but a store must follow all preceding
// fetches. Control-token arcs enforce the order without adding operands.
func TestControlTokenArcs(t *testing.T) {
	g := New()
	f1 := g.AddOp("fetch")
	f2 := g.AddOp("fetch")
	f3 := g.AddOp("fetch")
	st := g.AddOp("store")
	g.AddOrder(st, f1, f2, f3)
	g.AddOrder(st, f1) // duplicates and self arcs are ignored
	g.AddOrder(st, st)
	if len(st.Order) != 3 {
		t.Fatalf("order arcs = %d, want 3", len(st.Order))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	order, err := g.Schedule(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Despite store's higher priority, the control arcs force it last.
	if order[len(order)-1] != st {
		t.Errorf("store scheduled at %v", names(order))
	}
	seq, err := g.GenerateSequence(order)
	if err != nil {
		t.Fatal(err)
	}
	// Control arcs carry no operands: the store entry has arity 0 and the
	// fetches have no result offsets.
	for _, e := range seq.Entries {
		if len(e.Offsets[0]) != 0 {
			t.Errorf("%s has offsets %v; control arcs must not generate operands", e.Node, e.Offsets)
		}
	}
	// A reversed order violates the arcs.
	bad := []*Node{st, f1, f2, f3}
	if _, err := g.GenerateSequence(bad); err == nil {
		t.Error("control-token violation accepted")
	}
	// Predecessors include control arcs.
	if got := len(g.Predecessors(st)); got != 3 {
		t.Errorf("Predecessors = %d", got)
	}
	// Analysis sees the arcs: the store's cost covers the fetches.
	if got := g.Analyze().Cost(st); got != 4 {
		t.Errorf("C(store) = %d, want 4", got)
	}
}

func TestOrderArcCycleDetected(t *testing.T) {
	g := New()
	a := g.AddOp("a")
	b := g.AddOp("b")
	g.AddOrder(b, a)
	g.AddOrder(a, b)
	if err := g.Validate(); err == nil {
		t.Error("order cycle accepted")
	}
}
