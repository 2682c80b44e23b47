// Package compile is the back half of the thesis's OCCAM compiler (§4.8):
// it partitions the analyzed program into acyclic data-flow graphs connected
// by the dynamic graph-splicing protocol of §4.2 (the grapher), orders each
// graph's nodes with the priority heuristic of Figure 4.20 (the sequencer),
// and emits indexed-queue-machine object code (the coder and assembler
// stages).
//
// Context partitioning follows Chapter 4 exactly: sequential and parallel
// composition merge into the surrounding graph (Figure 4.9, with ∧-joins
// for parallel control tokens); a new graph — hence a run-time context — is
// created for every proc body, every while-loop iteration (test, body and
// terminator graphs spliced with ifork, Figure 4.6), every if branch
// (selected with the sel actor), and every replicated-par instance (a
// binary-splitting spawn tree of contexts, Figure 4.10). Replicated seq
// desugars to a while loop. Intercontext values travel over rendezvous
// channels in an order chosen by the π_I input-sequencing analysis; only
// values the live-value analysis marks live are sent back.
package compile

import (
	"fmt"
	"strings"

	"queuemachine/internal/asm"
	"queuemachine/internal/dfg"
	"queuemachine/internal/ift"
	"queuemachine/internal/isa"
	"queuemachine/internal/occam"
)

// Options selects the compiler's optimizations (Table 6.6 toggles them
// individually to measure their effect).
type Options struct {
	// NoInputOrder disables the π_I input-sequencing optimization;
	// intercontext values are then sent in declaration (IFT set) order.
	NoInputOrder bool
	// NoLiveFilter disables live-value filtering: every construct output
	// is sent back, not just the live ones.
	NoLiveFilter bool
	// NoPriority disables the Figure 4.20 priority heuristic; graphs are
	// sequenced in plain topological (creation) order.
	NoPriority bool
	// NoConstFold disables compile-time constant folding (address
	// arithmetic, Boolean normalization); every constant then flows
	// through the operand queue.
	NoConstFold bool
}

// GraphInfo records one compiled context graph for diagnostics and dumps.
type GraphInfo struct {
	Name string
	G    *dfg.Graph
	// Ins and Outs are the intercontext protocol value lists, in final
	// (π_I-ordered) transfer order, in the graph's own frame.
	Ins, Outs []ift.Value
	// Order is the emitted node sequence.
	Order []*dfg.Node
}

// Artifact is a compiled program.
type Artifact struct {
	Object *isa.Object
	Prog   *occam.Program
	Table  *ift.Table
	Graphs []*GraphInfo
	// Layout maps every vector symbol to its base word address in the
	// static data segment.
	Layout map[*occam.Symbol]int
}

// Assembly renders the listing `occ -S` prints from the object: the data
// size, the entry graph and each graph's decoded instructions (Compile
// validated the object, so every word decodes).
func (a *Artifact) Assembly() string {
	var b strings.Builder
	fmt.Fprintf(&b, ".data %d\n.entry %s\n", a.Object.DataWords, a.Object.Graphs[a.Object.Entry].Name)
	for _, g := range a.Object.Graphs {
		fmt.Fprintf(&b, ".graph %s queue=%d\n", g.Name, g.QueueWords)
		instrs, _ := asm.DecodeAll(g.Code)
		for _, in := range instrs {
			fmt.Fprintf(&b, "\t%s\n", in)
		}
	}
	return b.String()
}

// VectorBase returns the byte base address of a vector by name (outermost
// declaration wins), for test verification.
func (a *Artifact) VectorBase(name string) (int32, error) {
	var best *occam.Symbol
	for sym := range a.Layout {
		if sym.Name == name && (best == nil || sym.ID < best.ID) {
			best = sym
		}
	}
	if best == nil {
		return 0, fmt.Errorf("compile: no vector %q", name)
	}
	return int32(a.Layout[best] * isa.WordSize), nil
}

// Compile translates OCCAM source text into a queue machine object program.
func Compile(src string, opts Options) (*Artifact, error) {
	prog, err := occam.Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileProgram(prog, opts)
}

// CompileProgram compiles an already-parsed program.
func CompileProgram(prog *occam.Program, opts Options) (*Artifact, error) {
	if err := checkStatic(prog); err != nil {
		return nil, err
	}
	desugar(prog)
	table, err := ift.Build(prog)
	if err != nil {
		return nil, err
	}
	c := &compiler{
		prog:   prog,
		table:  table,
		opts:   opts,
		layout: map[*occam.Symbol]int{},
		procs:  map[*occam.Symbol]*procInfo{},
	}
	c.layoutVectors(prog.Body)
	if c.dataWords > maxDataWords {
		return nil, fmt.Errorf("compile: data segment needs %d words, above the %d-word limit", c.dataWords, maxDataWords)
	}
	if err := c.build(); err != nil {
		return nil, err
	}
	obj, err := c.emit()
	if err != nil {
		return nil, err
	}
	return &Artifact{
		Object: obj,
		Prog:   prog,
		Table:  table,
		Graphs: c.infos,
		Layout: c.layout,
	}, nil
}

type procInfo struct {
	graphIdx int
	// ins and outs in the callee frame, final transfer order.
	ins, outs []ift.Value
	// writes marks the callee-frame tokens the body may regenerate by
	// writing, for the call protocol's read/write flavors.
	writes map[ift.Value]bool
}

type compiler struct {
	prog  *occam.Program
	table *ift.Table
	opts  Options

	layout    map[*occam.Symbol]int
	dataWords int

	graphs []*graphCtx
	infos  []*GraphInfo
	procs  map[*occam.Symbol]*procInfo
}

// layoutVectors assigns every vector (word or channel) a static base
// address, walking the whole program in declaration order.
func (c *compiler) layoutVectors(p occam.Process) {
	switch n := p.(type) {
	case *occam.Scope:
		for _, d := range n.Decls {
			switch d.Kind {
			case occam.DeclVar, occam.DeclChan:
				for _, item := range d.Items {
					if item.Sym.IsVector() {
						c.layout[item.Sym] = c.dataWords
						if item.Sym.Kind == occam.SymVecByteVar {
							c.dataWords += (item.Sym.Size + 3) / 4
						} else {
							c.dataWords += item.Sym.Size
						}
					}
				}
			case occam.DeclProc:
				c.layoutVectors(d.Body)
			}
		}
		c.layoutVectors(n.Body)
	case *occam.Seq:
		for _, b := range n.Body {
			c.layoutVectors(b)
		}
	case *occam.Par:
		for _, b := range n.Body {
			c.layoutVectors(b)
		}
	case *occam.If:
		for _, g := range n.Branches {
			c.layoutVectors(g.Body)
		}
	case *occam.While:
		c.layoutVectors(n.Body)
	}
}

// build compiles the whole program, starting from the main graph (graph 0,
// the initial context's instruction sequence).
func (c *compiler) build() error {
	main := c.newGraph("main")
	return c.stmt(main, c.prog.Body)
}

// newGraph opens a fresh context graph.
func (c *compiler) newGraph(name string) *graphCtx {
	gc := &graphCtx{
		c:      c,
		name:   name,
		g:      dfg.New(),
		idx:    len(c.graphs),
		env:    map[ift.Value]*dfg.Node{},
		vecs:   map[*occam.Symbol]*vecState{},
		chains: map[*dfg.Node]*dfg.Node{},
		consts: map[int32]*dfg.Node{},
	}
	c.graphs = append(c.graphs, gc)
	c.infos = append(c.infos, &GraphInfo{Name: name, G: gc.g})
	return gc
}
