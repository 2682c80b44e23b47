package queuemachine

// The benchmark harness: one benchmark per table and figure of the thesis's
// evaluation. The Chapter 3 benchmarks exercise the enumeration and
// pipelined-ALU studies; the Chapter 6 benchmarks compile the OCCAM
// workloads once and simulate the full multiprocessor at every machine
// size, reporting the simulated cycle count (and the throughput ratio
// against one processing element) as benchmark metrics. Every benchmarked
// simulation also verifies its computed result against the bit-exact Go
// reference.

import (
	"fmt"
	"io"
	"testing"

	"queuemachine/internal/amdahl"
	"queuemachine/internal/bintree"
	"queuemachine/internal/compile"
	"queuemachine/internal/dfg"
	"queuemachine/internal/experiments"
	"queuemachine/internal/exprgen"
	"queuemachine/internal/isa"
	"queuemachine/internal/mcache"
	"queuemachine/internal/pe"
	"queuemachine/internal/pipesim"
	"queuemachine/internal/queue"
	"queuemachine/internal/sim"
	"queuemachine/internal/workloads"
)

// BenchmarkTable31 regenerates the queue-vs-stack instruction sequence
// traces for f := a*b + (c-d)/e.
func BenchmarkTable31(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table31(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig31 regenerates the parse tree, level order and conjugate tree.
func BenchmarkFig31(b *testing.B) {
	tree := bintree.MustParseExpr("a*b + (c-d)/e")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := bintree.LevelOrder(tree); len(got) != 9 {
			b.Fatal("wrong traversal")
		}
	}
}

// BenchmarkTable32 sweeps every parse tree up to 11 nodes on the two-stage
// pipelined ALU under both fetch/execute cases.
func BenchmarkTable32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table32Rows()
		if len(rows) != 22 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkTable33 sweeps pipeline depths one to six on the 11-node trees.
func BenchmarkTable33(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for s := 1; s <= 6; s++ {
			pipesim.Sweep(11, s, pipesim.Case1, exprgen.ForEach)
			pipesim.Sweep(11, s, pipesim.Case2, exprgen.ForEach)
		}
	}
}

// BenchmarkTable34 regenerates the indexed-queue sequence for the shared
// subexpression example and evaluates it on the abstract machine.
func BenchmarkTable34(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table34(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable43 builds the Table 4.3 intermediate form table.
func BenchmarkTable43(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table43(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable44 runs the P*/I*/C analysis of the Figure 4.14 graph.
func BenchmarkTable44(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table44(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable45 computes the π_I input weights.
func BenchmarkTable45(b *testing.B) {
	g := dfg.New()
	a := g.Input("a")
	bb := g.Input("b")
	c := g.Input("c")
	d := g.Input("d")
	plus := g.AddOp("+", a, bb)
	neg := g.AddOp("-", c)
	mul := g.AddOp("*", plus, neg)
	div := g.AddOp("/", mul, d)
	g.AddOp("e", div)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an := g.Analyze()
		if got := an.InputWeight(a); got != 27 {
			b.Fatalf("W(a) = %d", got)
		}
	}
}

// BenchmarkTable53 drives the message-cache state machine through send,
// receive and fetch-and-φ transitions under eviction pressure.
func BenchmarkTable53(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := mcache.New(4)
		for ch := int32(1); ch <= 64; ch++ {
			if _, _, err := c.Send(ch, ch, mcache.ContextRef{Ctx: 1}); err != nil {
				b.Fatal(err)
			}
		}
		for ch := int32(1); ch <= 64; ch++ {
			done, _, err := c.Recv(ch, mcache.ContextRef{Ctx: 2})
			if err != nil || done == nil || done.Value != ch {
				b.Fatalf("ch %d: %v %v", ch, done, err)
			}
		}
	}
}

// BenchmarkFig66 tabulates Amdahl's law (f = 0.93).
func BenchmarkFig66(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range experiments.PECounts {
			if amdahl.Speedup(0.93, n) <= 0 {
				b.Fatal("bad speedup")
			}
		}
	}
}

// BenchmarkFig67 tabulates the modified law (f = 0.63, g = 0.3).
func BenchmarkFig67(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range experiments.PECounts {
			if amdahl.ModifiedSpeedup(0.63, 0.3, n) <= 0 {
				b.Fatal("bad speedup")
			}
		}
	}
}

// benchWorkload compiles a workload once and benchmarks the multiprocessor
// simulation at each machine size, verifying the result every iteration and
// reporting simulated cycles and the throughput ratio.
func benchWorkload(b *testing.B, wl workloads.Workload, peCounts []int) {
	art, err := compile.Compile(wl.Source, compile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	baseline := map[int]int64{}
	for _, pes := range peCounts {
		pes := pes
		b.Run(fmt.Sprintf("pes-%d", pes), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(art.Object, pes, sim.DefaultParams())
				if err != nil {
					b.Fatal(err)
				}
				if err := wl.Check(art, res.Data); err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "simcycles")
			if pes == peCounts[0] {
				baseline[0] = cycles
			} else if baseline[0] != 0 {
				b.ReportMetric(float64(baseline[0])/float64(cycles), "speedup")
			}
		})
	}
}

// BenchmarkFig68Matmul is the Figure 6.8 / Table 6.2 experiment: 8×8 matrix
// multiplication across one to eight processing elements.
func BenchmarkFig68Matmul(b *testing.B) {
	benchWorkload(b, workloads.MatMul(8), experiments.PECounts)
}

// BenchmarkFig610FFT is the Figure 6.10 / Table 6.3 experiment: the
// 64-point fixed-point FFT.
func BenchmarkFig610FFT(b *testing.B) {
	benchWorkload(b, workloads.FFT(6), experiments.PECounts)
}

// BenchmarkFig611Cholesky is the Figure 6.11 / Table 6.4 experiment: 8×8
// integer Cholesky decomposition.
func BenchmarkFig611Cholesky(b *testing.B) {
	benchWorkload(b, workloads.Cholesky(8), experiments.PECounts)
}

// BenchmarkFig612Congruence is the Figure 6.12 / Table 6.5 experiment: the
// 8×8 congruence transformation B = PᵀAP.
func BenchmarkFig612Congruence(b *testing.B) {
	benchWorkload(b, workloads.Congruence(8), experiments.PECounts)
}

// BenchmarkFig69 compares the binary-recursive and iterative summation
// procedures.
func BenchmarkFig69(b *testing.B) {
	for _, wl := range []workloads.Workload{
		workloads.BinaryRecursiveSum(32),
		workloads.IterativeSum(32),
	} {
		wl := wl
		art, err := compile.Compile(wl.Source, compile.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(wl.Name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(art.Object, 4, sim.DefaultParams())
				if err != nil {
					b.Fatal(err)
				}
				if err := wl.Check(art, res.Data); err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "simcycles")
		})
	}
}

// BenchmarkHostSweep measures how fast the host simulates the gated mix:
// the eight exact-gated programs (workloads.Gated), compiled once, run
// back to back at each machine size. It reports wall-clock time and
// allocations per pass of the mix and the simulator's own throughput as a
// "simInstrs/s" metric, the quantity perfbench's sweep gates on as
// sim_minstr_per_s. Where the Fig/Gen2 benchmarks report what the
// simulated machine did, this reports how fast the host executed it.
func BenchmarkHostSweep(b *testing.B) {
	wls := workloads.Gated()
	arts := make([]*compile.Artifact, len(wls))
	for i, wl := range wls {
		art, err := compile.Compile(wl.Source, compile.Options{})
		if err != nil {
			b.Fatalf("%s: %v", wl.Name, err)
		}
		arts[i] = art
	}
	// perfbench's sweep sizes: the thesis's 1–8 PE range plus 64, where
	// kernel placement and ring traffic dominate.
	for _, pes := range []int{1, 2, 4, 8, 64} {
		b.Run(fmt.Sprintf("pes-%d", pes), func(b *testing.B) {
			b.ReportAllocs()
			var instrs int64
			for i := 0; i < b.N; i++ {
				for k, art := range arts {
					res, err := sim.Run(art.Object, pes, sim.DefaultParams())
					if err != nil {
						b.Fatalf("%s: %v", wls[k].Name, err)
					}
					if err := wls[k].Check(art, res.Data); err != nil {
						b.Fatalf("%s: %v", wls[k].Name, err)
					}
					instrs += res.Instructions
				}
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(instrs)/secs, "simInstrs/s")
			}
		})
	}
}

// BenchmarkTable66 measures each compiler optimization's effect on the
// matrix multiplication benchmark at four processing elements.
func BenchmarkTable66(b *testing.B) {
	wl := workloads.MatMul(6)
	for _, cse := range experiments.OptimizationCases() {
		cse := cse
		art, err := compile.Compile(wl.Source, cse.Opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cse.Name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(art.Object, 4, sim.DefaultParams())
				if err != nil {
					b.Fatal(err)
				}
				if err := wl.Check(art, res.Data); err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "simcycles")
		})
	}
}

// gen2PECounts is the machine-size sweep for the second-generation suite;
// the qbench gate holds an exact cycle baseline for every point.
var gen2PECounts = []int{1, 2, 4, 8}

// BenchmarkGen2Bitonic sorts 16 keys through the full bitonic network, one
// replicated par of compare-exchange contexts per stage.
func BenchmarkGen2Bitonic(b *testing.B) {
	benchWorkload(b, workloads.Bitonic(4), gen2PECounts)
}

// BenchmarkGen2LU factors an exactly decomposable 6×6 integer matrix with
// Doolittle elimination, a U-row and L-column fan-out per step.
func BenchmarkGen2LU(b *testing.B) {
	benchWorkload(b, workloads.LU(6), gen2PECounts)
}

// BenchmarkGen2Stencil runs four three-point sweeps over 16 cells,
// ping-ponging between buffers with one context per interior cell.
func BenchmarkGen2Stencil(b *testing.B) {
	benchWorkload(b, workloads.Stencil(16, 4), gen2PECounts)
}

// BenchmarkGen2Chain pushes 24 values through the four-stage rendezvous
// pipeline; the run is dominated by channel traffic on the ring and mcache.
func BenchmarkGen2Chain(b *testing.B) {
	benchWorkload(b, workloads.Chain(24), gen2PECounts)
}

// BenchmarkCompiler measures the OCCAM compiler on the eight exact-gated
// programs perfbench's sweep compiles in its set-up, one sub-benchmark
// each.
func BenchmarkCompiler(b *testing.B) {
	for _, wl := range workloads.Gated() {
		b.Run(wl.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compile.Compile(wl.Source, compile.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoadProgram measures pe.LoadProgram, the validate-and-decode
// step every compile, disk-tier read, peer fetch and sim.New pays, on the
// eight sweep programs, one sub-benchmark each.
func BenchmarkLoadProgram(b *testing.B) {
	for _, wl := range workloads.Gated() {
		art, err := compile.Compile(wl.Source, compile.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(wl.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pe.LoadProgram(art.Object); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAssembler measures instruction encode/decode round trips.
func BenchmarkAssembler(b *testing.B) {
	in := isa.Instr{Op: isa.OpPlus, Src1: isa.Window(0), Src2: isa.Window(1),
		Dst1: 0, Dst2: 2, QPInc: 2}
	for i := 0; i < b.N; i++ {
		words, err := in.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := isa.Decode(words); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAbstractQueue measures the abstract simple-queue evaluator on
// the Table 3.1 program.
func BenchmarkAbstractQueue(b *testing.B) {
	tree := bintree.MustParseExpr("a*b + (c-d)/e")
	env := queue.Env{"a": 7, "b": 3, "c": 20, "d": 6, "e": 2}
	seq, err := queue.CompileTree(bintree.LevelOrder(tree), env)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, err := queue.EvalSimple(seq); err != nil || v != 7*3+(20-6)/2 {
			b.Fatalf("eval: %d, %v", v, err)
		}
	}
}
