// Package experiments regenerates every table and figure of the thesis that
// this reproduction covers (the per-experiment index lives in DESIGN.md).
// Each experiment writes a textual rendition of the table or figure series
// to a writer; cmd/qmexp exposes them on the command line and the top-level
// benchmark harness drives them as testing.B benchmarks.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"queuemachine/internal/amdahl"
	"queuemachine/internal/bintree"
	"queuemachine/internal/compile"
	"queuemachine/internal/core"
	"queuemachine/internal/dfg"
	"queuemachine/internal/exprgen"
	"queuemachine/internal/ift"
	"queuemachine/internal/mcache"
	"queuemachine/internal/occam"
	"queuemachine/internal/pipesim"
	"queuemachine/internal/queue"
	"queuemachine/internal/sim"
	"queuemachine/internal/workloads"
)

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer) error
}

// All lists every experiment in thesis order.
func All() []Experiment {
	return []Experiment{
		{"fig3.1", "Parse tree, level order and conjugate tree for f := a*b + (c-d)/e", Fig31},
		{"table3.1", "Queue vs stack machine instruction sequences", Table31},
		{"table3.2", "Speed-up vs parse tree size, two-stage pipelined ALU", Table32},
		{"table3.3", "Speed-up vs pipeline depth, 11-node trees", Table33},
		{"table3.4", "Indexed queue machine sequence for d := a/(a+b) + (a+b)*c", Table34},
		{"table4.3", "Sample OCCAM fragment and its Intermediate Form Table", Table43},
		{"table4.4", "P*, I* and C for the Figure 4.14 graph", Table44},
		{"table4.5", "Input weights W(v) and the pi_I order", Table45},
		{"table5.3", "Message cache state transitions (send/receive, fetch-and-phi)", Table53},
		{"fig6.6", "Amdahl's law, f = 0.93", Fig66},
		{"fig6.7", "Modified Amdahl's law, f = 0.63, g = 0.3", Fig67},
		{"fig6.8", "Matrix multiplication: throughput ratio vs processors (+ Table 6.2)", Fig68},
		{"fig6.9", "Binary recursive vs non-recursive procedure", Fig69},
		{"fig6.10", "FFT: throughput ratio vs processors (+ Table 6.3)", Fig610},
		{"fig6.11", "Cholesky: throughput ratio vs processors (+ Table 6.4)", Fig611},
		{"fig6.12", "Congruence transformation: throughput ratio vs processors (+ Table 6.5)", Fig612},
		{"table6.6", "Compiler optimization speed-up factors", Table66},
		{"sched", "Scheduler policy sweep: Chapter 6 smoke grid across policies", SchedSweep},
		{"ablation-cache", "Ablation: message cache capacity vs speed-up", AblationCache},
		{"ablation-bus", "Ablation: interconnect bandwidth vs speed-up", AblationBus},
		{"ablation-window", "Ablation: register roll-out cost vs speed-up", AblationWindow},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// PECounts is the machine-size sweep of the Chapter 6 figures.
var PECounts = []int{1, 2, 3, 4, 5, 6, 7, 8}

// ---------------------------------------------------------------------------
// Chapter 3

const fig31Expr = "a*b + (c-d)/e"

// Fig31 renders the Figure 3.1 triple: parse tree (infix), level order, and
// the level-order conjugate tree.
func Fig31(w io.Writer) error {
	tree, err := bintree.ParseExpr(fig31Expr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "expression: f := %s\n", fig31Expr)
	fmt.Fprintf(w, "parse tree (fully parenthesized): %s\n", bintree.Infix(tree))
	fmt.Fprintf(w, "level order: %v\n", bintree.Labels(bintree.LevelOrder(tree)))
	fmt.Fprintf(w, "level-order conjugate tree:\n%s", bintree.ConjugateSketch(tree))
	return nil
}

// Table31 renders the stack and queue instruction sequences and their
// symbolic evaluation traces.
func Table31(w io.Writer) error {
	tree, err := bintree.ParseExpr(fig31Expr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "f := %s\n\nqueue machine:\n", fig31Expr)
	qstates, qv, err := queue.TraceSimple(queue.CompileTreeSymbolic(bintree.LevelOrder(tree)))
	if err != nil {
		return err
	}
	fmt.Fprint(w, queue.FormatTrace(qstates))
	fmt.Fprintf(w, "result: %s\n\nstack machine:\n", qv)
	sstates, sv, err := queue.TraceStack(queue.CompileTreeSymbolic(bintree.PostOrder(tree)))
	if err != nil {
		return err
	}
	fmt.Fprint(w, queue.FormatTrace(sstates))
	fmt.Fprintf(w, "result: %s\n", sv)
	return nil
}

// Table32Rows computes the Table 3.2 sweep.
func Table32Rows() []pipesim.Result {
	var rows []pipesim.Result
	for n := 1; n <= 11; n++ {
		rows = append(rows, pipesim.Sweep(n, 2, pipesim.Case1, exprgen.ForEach))
		rows = append(rows, pipesim.Sweep(n, 2, pipesim.Case2, exprgen.ForEach))
	}
	return rows
}

// Table32 renders the speed-up table for a two-stage pipelined ALU.
func Table32(w io.Writer) error {
	fmt.Fprintf(w, "%-6s %-8s %-8s %-8s\n", "nodes", "trees", "case 1", "case 2")
	for n := 1; n <= 11; n++ {
		r1 := pipesim.Sweep(n, 2, pipesim.Case1, exprgen.ForEach)
		r2 := pipesim.Sweep(n, 2, pipesim.Case2, exprgen.ForEach)
		fmt.Fprintf(w, "%-6d %-8d %-8.2f %-8.2f\n", n, r1.Trees, r1.SpeedUp(), r2.SpeedUp())
	}
	return nil
}

// Table33 renders the speed-up vs pipeline depth table (11-node trees).
func Table33(w io.Writer) error {
	fmt.Fprintf(w, "%-8s %-8s %-8s\n", "stages", "case 1", "case 2")
	for s := 1; s <= 6; s++ {
		r1 := pipesim.Sweep(11, s, pipesim.Case1, exprgen.ForEach)
		r2 := pipesim.Sweep(11, s, pipesim.Case2, exprgen.ForEach)
		fmt.Fprintf(w, "%-8d %-8.2f %-8.2f\n", s, r1.SpeedUp(), r2.SpeedUp())
	}
	return nil
}

// Table34 builds the Figure 3.6(b) shared-subexpression graph, generates
// its indexed-queue sequence with the Figure 4.20 scheduler, and traces the
// evaluation.
func Table34(w io.Writer) error {
	g2 := dfg.New()
	a2 := g2.Input("a")
	b2 := g2.Input("b")
	c2 := g2.Input("c")
	sum2 := g2.AddOp("+", a2, b2)
	div2 := g2.AddOp("/", a2, sum2)
	mul2 := g2.AddOp("*", sum2, c2)
	g2.AddOp("+", div2, mul2)
	order, err := g2.Schedule(nil)
	if err != nil {
		return err
	}
	seq, err := g2.GenerateSequence(order)
	if err != nil {
		return err
	}
	env := map[string]int64{"a": 6, "b": 2, "c": 5}
	sem := func(n *dfg.Node, args []int64) ([]int64, error) {
		if n.IsInput {
			return []int64{env[n.Op]}, nil
		}
		switch n.Op {
		case "+":
			return []int64{args[0] + args[1]}, nil
		case "/":
			return []int64{args[0] / args[1]}, nil
		case "*":
			return []int64{args[0] * args[1]}, nil
		}
		return []int64{args[0]}, nil
	}
	prog, err := seq.ToIndexed(sem)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "d := a/(a+b) + (a+b)*c with a=6 b=2 c=5\n")
	fmt.Fprintf(w, "%-12s %-8s %s\n", "instruction", "arity", "result offsets")
	for _, e := range seq.Entries {
		fmt.Fprintf(w, "%-12s %-8d %v\n", e.Node.String(), e.Node.Arity(), e.Offsets[0])
	}
	states, _, err := queue.TraceIndexed(prog)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nevaluation trace (front offset, live slots):\n")
	for _, s := range states {
		fmt.Fprintf(w, "%-14s front=%d slots=%v\n", s.Instr, s.Front, s.Slots)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Chapter 4

// Table43 builds the Table 4.3 IFT for the sample fragment.
func Table43(w io.Writer) error {
	src := `var x, y:
seq
  x := x + 1
  y := x
`
	prog, err := occam.Parse(src)
	if err != nil {
		return err
	}
	table, err := ift.Build(prog)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fragment:\n%s\n", src)
	fmt.Fprintf(w, "%-4s %-10s %-14s %-14s %s\n", "idx", "type", "I", "O", "E")
	for _, e := range table.Entries {
		if e.Kind == ift.KMain {
			continue
		}
		fmt.Fprintf(w, "%-4d %-10v %-14s %-14s %v\n",
			e.Index, e.Kind, valueList(e.Inputs()), valueList(e.Outputs()), e.E)
	}
	return nil
}

func valueList(vals []ift.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// fig414Graph reconstructs the Figure 4.14 analysis graph.
func fig414Graph() (*dfg.Graph, []*dfg.Node) {
	g := dfg.New()
	a := g.Input("a")
	b := g.Input("b")
	c := g.Input("c")
	d := g.Input("d")
	plus := g.AddOp("+", a, b)
	neg := g.AddOp("-", c)
	mul := g.AddOp("*", plus, neg)
	div := g.AddOp("/", mul, d)
	e := g.AddOp("e", div)
	return g, []*dfg.Node{a, b, c, d, plus, neg, mul, div, e}
}

// Table44 renders P*, I* and C for every node of the Figure 4.14 graph.
func Table44(w io.Writer) error {
	g, _ := fig414Graph()
	an := g.Analyze()
	fmt.Fprintf(w, "e := ((a+b) * (-c)) / d\n")
	fmt.Fprintf(w, "depth-first list: %v\n\n", nodeOps(g.DepthFirstList()))
	fmt.Fprintf(w, "%-6s %-28s %-16s %s\n", "node", "P*(v)", "I*(v)", "C(v)")
	for _, n := range g.DepthFirstList() {
		fmt.Fprintf(w, "%-6s %-28s %-16s %d\n",
			n.Op,
			"{"+strings.Join(nodeOps(an.PredecessorSet(n)), " ")+"}",
			"{"+strings.Join(nodeOps(an.RequiredInputs(n)), " ")+"}",
			an.Cost(n))
	}
	return nil
}

// Table45 renders the input weights and the resulting order.
func Table45(w io.Writer) error {
	g, _ := fig414Graph()
	an := g.Analyze()
	fmt.Fprintf(w, "%-6s %s\n", "input", "W(v)")
	for _, n := range g.Inputs() {
		fmt.Fprintf(w, "%-6s %d\n", n.Op, an.InputWeight(n))
	}
	fmt.Fprintf(w, "pi_I order: %v\n", nodeOps(an.InputOrder()))
	return nil
}

func nodeOps(nodes []*dfg.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Op
	}
	return out
}

// ---------------------------------------------------------------------------
// Chapter 5/6: message cache transitions

// Table53 exercises and prints the message-cache state transition tables.
func Table53(w io.Writer) error {
	c := mcache.New(4)
	sender := mcache.ContextRef{PE: 0, Ctx: 1}
	receiver := mcache.ContextRef{PE: 1, Ctx: 2}
	step := func(desc string, f func() (any, error)) error {
		r, err := f()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-34s -> state=%v result=%v\n", desc, c.ChannelState(1), r)
		return nil
	}
	fmt.Fprintln(w, "send/receive transitions on channel 1:")
	if err := step("send(1, 42) on empty", func() (any, error) {
		done, _, err := c.Send(1, 42, sender)
		return done, err
	}); err != nil {
		return err
	}
	if err := step("recv(1) on sender-wait", func() (any, error) {
		done, _, err := c.Recv(1, receiver)
		return done, err
	}); err != nil {
		return err
	}
	if err := step("recv(1) on empty", func() (any, error) {
		done, _, err := c.Recv(1, receiver)
		return done, err
	}); err != nil {
		return err
	}
	if err := step("send(1, 7) on receiver-wait", func() (any, error) {
		done, _, err := c.Send(1, 7, sender)
		return done, err
	}); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nfetch-and-phi transitions on channel 9:")
	for _, op := range []struct {
		desc string
		f    func() (int32, bool, error)
	}{
		{"fetch-and-add(9, 5)", func() (int32, bool, error) { return c.FetchAndAdd(9, 5) }},
		{"fetch-and-add(9, 3)", func() (int32, bool, error) { return c.FetchAndAdd(9, 3) }},
		{"fetch-and-store(9, 100)", func() (int32, bool, error) { return c.FetchAndStore(9, 100) }},
	} {
		old, _, err := op.f()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-34s -> state=%v old=%d\n", op.desc, c.ChannelState(9), old)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Chapter 6: analytic curves

// Fig66 renders Amdahl's law with the thesis's f = 0.93.
func Fig66(w io.Writer) error {
	fmt.Fprintf(w, "Amdahl's law, f = 0.93\n%-6s %s\n", "n", "S(n)")
	for _, n := range PECounts {
		fmt.Fprintf(w, "%-6d %.3f\n", n, amdahl.Speedup(0.93, n))
	}
	return nil
}

// Fig67 renders the modified law with f = 0.63, g = 0.3.
func Fig67(w io.Writer) error {
	fmt.Fprintf(w, "modified Amdahl's law, f = 0.63, g = 0.30\n%-6s %-8s %s\n", "n", "S(n)", "S(n)/n")
	for _, n := range PECounts {
		s := amdahl.ModifiedSpeedup(0.63, 0.30, n)
		fmt.Fprintf(w, "%-6d %-8.3f %.3f\n", n, s, s/float64(n))
	}
	return nil
}

// ---------------------------------------------------------------------------
// Chapter 6: benchmark sweeps

// SweepWorkload runs one benchmark across the machine sizes, verifying the
// result at every size, and renders the figure series plus the statistics
// table.
func SweepWorkload(w io.Writer, wl workloads.Workload, peCounts []int) ([]core.SweepPoint, error) {
	points, _, err := core.Sweep(wl.Source, peCounts, core.DefaultConfig(), wl.Check)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "workload: %s (result verified on every machine size)\n", wl.Name)
	fmt.Fprintf(w, "%-5s %-12s %-10s %-8s %-10s %-10s %-9s %-9s %-10s %-7s\n",
		"PEs", "cycles", "speedup", "util", "instrs", "contexts", "switches", "rendezv", "cache-miss", "avg-q")
	for _, p := range points {
		r := p.Result
		fmt.Fprintf(w, "%-5d %-12d %-10.2f %-8.2f %-10d %-10d %-9d %-9d %-10d %-7.2f\n",
			p.PEs, r.Cycles, p.Speedup, p.Utilization, r.Instructions,
			r.Kernel.ContextsCreated, r.Switches, r.Cache.Rendezvous, r.Cache.Misses,
			r.AvgQueueLength())
	}
	ns := make([]int, len(points))
	meas := make([]float64, len(points))
	for i, p := range points {
		ns[i], meas[i] = p.PEs, p.Speedup
	}
	f := amdahl.FitAmdahl(ns, meas)
	mf, mg := amdahl.FitModified(ns, meas)
	fmt.Fprintf(w, "Amdahl fit: f = %.2f; modified fit: f = %.2f, g = %.2f\n", f, mf, mg)
	return points, nil
}

// Fig68 is the matrix multiplication sweep (Figure 6.8 / Table 6.2).
func Fig68(w io.Writer) error {
	_, err := SweepWorkload(w, workloads.MatMul(8), PECounts)
	return err
}

// Fig610 is the FFT sweep (Figure 6.10 / Table 6.3).
func Fig610(w io.Writer) error {
	_, err := SweepWorkload(w, workloads.FFT(6), PECounts)
	return err
}

// Fig611 is the Cholesky sweep (Figure 6.11 / Table 6.4).
func Fig611(w io.Writer) error {
	_, err := SweepWorkload(w, workloads.Cholesky(8), PECounts)
	return err
}

// Fig612 is the congruence transformation sweep (Figure 6.12 / Table 6.5).
func Fig612(w io.Writer) error {
	_, err := SweepWorkload(w, workloads.Congruence(8), PECounts)
	return err
}

// Fig69 compares the binary-recursive and non-recursive procedures.
func Fig69(w io.Writer) error {
	for _, wl := range []workloads.Workload{
		workloads.BinaryRecursiveSum(32),
		workloads.IterativeSum(32),
	} {
		res, art, err := core.Run(wl.Source, 4, core.DefaultConfig())
		if err != nil {
			return err
		}
		if err := wl.Check(art, res.Data); err != nil {
			return err
		}
		fmt.Fprintf(w, "%-24s cycles=%-8d contexts=%-5d rforks=%-4d iforks=%-4d (4 PEs, verified)\n",
			wl.Name, res.Cycles, res.Kernel.ContextsCreated, res.Kernel.RForks, res.Kernel.IForks)
	}
	return nil
}

// OptimizationCases lists the Table 6.6 compiler configurations.
func OptimizationCases() []struct {
	Name string
	Opts compile.Options
} {
	return []struct {
		Name string
		Opts compile.Options
	}{
		{"all optimizations on", compile.Options{}},
		{"no pi_I input ordering", compile.Options{NoInputOrder: true}},
		{"no live-value filtering", compile.Options{NoLiveFilter: true}},
		{"no priority sequencing", compile.Options{NoPriority: true}},
		{"no constant folding/immediates", compile.Options{NoConstFold: true}},
		{"all optimizations off", compile.Options{NoInputOrder: true, NoLiveFilter: true, NoPriority: true, NoConstFold: true}},
	}
}

// ablate runs the matmul benchmark at 1 and 8 PEs under a parameter
// mutation and reports the cycle counts and throughput ratio.
func ablate(w io.Writer, label string, configure func(v int64) sim.Params, values []int64) error {
	wl := workloads.MatMul(8)
	art, err := compile.Compile(wl.Source, compile.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload: %s; parameter: %s\n", wl.Name, label)
	fmt.Fprintf(w, "%-10s %-12s %-12s %s\n", label, "cycles(1)", "cycles(8)", "S(8)")
	for _, v := range values {
		params := configure(v)
		r1, err := sim.Run(art.Object, 1, params)
		if err != nil {
			return err
		}
		if err := wl.Check(art, r1.Data); err != nil {
			return err
		}
		r8, err := sim.Run(art.Object, 8, params)
		if err != nil {
			return err
		}
		if err := wl.Check(art, r8.Data); err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10d %-12d %-12d %.2f\n", v, r1.Cycles, r8.Cycles,
			float64(r1.Cycles)/float64(r8.Cycles))
	}
	return nil
}

// AblationCache sweeps the per-message-processor channel cache capacity —
// the aggregate-capacity effect behind the super-linear margin.
func AblationCache(w io.Writer) error {
	return ablate(w, "entries", func(v int64) sim.Params {
		p := sim.DefaultParams()
		p.MsgCacheEntries = int(v)
		return p
	}, []int64{4, 16, 64, 256})
}

// AblationBus sweeps the partitioned bus occupancy per message — the
// bandwidth the ring partitioning exists to multiply.
func AblationBus(w io.Writer) error {
	return ablate(w, "buscycles", func(v int64) sim.Params {
		p := sim.DefaultParams()
		p.Ring.BusCycles = v
		p.Ring.LinkCycles = v
		return p
	}, []int64{1, 2, 4, 8})
}

// AblationWindow sweeps the register roll-out cost of a context switch —
// the price of the sliding window on heavily shared processors.
func AblationWindow(w io.Writer) error {
	return ablate(w, "rollout", func(v int64) sim.Params {
		p := sim.DefaultParams()
		p.PE.RollOut = int(v)
		return p
	}, []int64{0, 2, 4, 8})
}

// Table66 measures the speed-up factor each compiler optimization
// contributes, on the matrix multiplication benchmark at 4 processing
// elements.
func Table66(w io.Writer) error {
	wl := workloads.MatMul(6)
	type row struct {
		name   string
		cycles int64
	}
	var rows []row
	for _, c := range OptimizationCases() {
		cfg := core.DefaultConfig()
		cfg.Compile = c.Opts
		res, art, err := core.Run(wl.Source, 4, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		if err := wl.Check(art, res.Data); err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		rows = append(rows, row{c.Name, res.Cycles})
	}
	base := rows[0].cycles
	fmt.Fprintf(w, "workload: %s on 4 PEs (all configurations verified)\n", wl.Name)
	fmt.Fprintf(w, "%-34s %-12s %s\n", "configuration", "cycles", "slowdown vs optimized")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %-12d %.2fx\n", r.name, r.cycles, float64(r.cycles)/float64(base))
	}
	return nil
}
