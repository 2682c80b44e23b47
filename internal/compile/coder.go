package compile

import (
	"fmt"

	"queuemachine/internal/dfg"
	"queuemachine/internal/isa"
)

// Scratch globals used by the coder for two-result trap instructions.
const (
	scratch1 = 19
	scratch2 = 20
)

// emit sequences and codes every graph, producing the object program.
func (c *compiler) emit() (*isa.Object, error) {
	obj := &isa.Object{
		DataInit:   map[int]int32{},
		DataWords:  c.dataWords,
		Entry:      0,
		SourceName: "occam",
	}
	for gi, gc := range c.graphs {
		instrs, queueWords, order, err := c.code(gc)
		if err != nil {
			return nil, fmt.Errorf("compile: graph %s: %w", gc.name, err)
		}
		c.infos[gi].Order = order
		var words []uint32
		for _, in := range instrs {
			w, err := in.Encode()
			if err != nil {
				return nil, fmt.Errorf("compile: graph %s: encoding %v: %w", gc.name, in, err)
			}
			words = append(words, w...)
		}
		obj.Graphs = append(obj.Graphs, isa.GraphCode{
			Name:       gc.name,
			Code:       words,
			QueueWords: queueWords,
			Weight:     graphWeight(gc.g),
		})
	}
	if err := obj.Validate(); err != nil {
		return nil, err
	}
	return obj, nil
}

// code sequences one graph with the Figure 4.20 scheduler and translates
// the sequence to instructions.
func (c *compiler) code(gc *graphCtx) ([]isa.Instr, int, []*dfg.Node, error) {
	if err := gc.g.Validate(); err != nil {
		return nil, 0, nil, err
	}
	var order []*dfg.Node
	var err error
	if c.opts.NoPriority {
		order, err = gc.g.TopoOrder()
	} else {
		order, err = gc.g.Schedule(nil)
	}
	if err != nil {
		return nil, 0, nil, err
	}
	seq, err := gc.g.GenerateSequence(order)
	if err != nil {
		return nil, 0, nil, err
	}
	cd := &coder{}
	for _, e := range seq.Entries {
		if err := cd.entry(e); err != nil {
			return nil, 0, nil, err
		}
	}
	// Terminate the context.
	cd.push(isa.Instr{Op: isa.OpTrap, Src1: isa.Imm(isa.KExit), Src2: isa.Imm(0),
		Dst1: isa.RegDummy, Dst2: isa.RegDummy})
	queueWords := 32
	for queueWords < cd.maxRel+2 {
		queueWords *= 2
	}
	if queueWords > isa.MaxQueuePage {
		return nil, 0, nil, fmt.Errorf("context needs a %d-word operand queue (max %d); split the construct",
			cd.maxRel+2, isa.MaxQueuePage)
	}
	return cd.out, queueWords, order, nil
}

// graphWeight computes a graph's static scheduling weight with the §4.5
// cost analysis: the maximum C(v) over the graph's nodes, i.e. the total
// cost of the predecessor closure of its most-demanding node. For the
// single-sink graphs the grapher emits this is the whole computation the
// context enables — the same quantity the π_I input weights W(v) aggregate
// per input — so priority dispatch runs the contexts the rest of the
// program waits on first. The weight rides in the object code
// (isa.GraphCode.Weight) and the kernel copies it into every context
// executing the graph.
func graphWeight(g *dfg.Graph) int {
	an := g.Analyze()
	w := 0
	for _, v := range g.Nodes {
		if c := an.Cost(v); c > w {
			w = c
		}
	}
	return w
}

type coder struct {
	out    []isa.Instr
	maxRel int
}

func (cd *coder) push(in isa.Instr) { cd.out = append(cd.out, in) }

// result distributes an instruction's result offsets: up to two offsets
// below 16 ride in the destination register fields; the rest follow in dup
// instructions chained with the continue flag.
func (cd *coder) result(offsets []int, build func(dst1, dst2 int) isa.Instr) {
	for _, off := range offsets {
		if off > cd.maxRel {
			cd.maxRel = off
		}
	}
	var regs []int
	var dups []int
	for _, off := range offsets {
		if off < isa.NumWindowRegs && len(regs) < 2 {
			regs = append(regs, off)
		} else {
			dups = append(dups, off)
		}
	}
	d1, d2 := isa.RegDummy, isa.RegDummy
	if len(regs) > 0 {
		d1 = regs[0]
	}
	if len(regs) > 1 {
		d2 = regs[1]
	}
	main := build(d1, d2)
	main.Cont = len(dups) > 0
	cd.push(main)
	for len(dups) > 0 {
		in := isa.Instr{Op: isa.OpDup1, Dst1: dups[0]}
		if len(dups) >= 2 {
			in = isa.Instr{Op: isa.OpDup2, Dst1: dups[0], Dst2: dups[1]}
			dups = dups[2:]
		} else {
			dups = dups[1:]
		}
		in.Cont = len(dups) > 0
		cd.push(in)
	}
}

// alu emits a standard front-of-queue instruction.
func alu(op isa.Opcode, src1, src2 isa.Src, qpinc int) func(d1, d2 int) isa.Instr {
	return func(d1, d2 int) isa.Instr {
		return isa.Instr{Op: op, Src1: src1, Src2: src2, Dst1: d1, Dst2: d2, QPInc: qpinc}
	}
}

func (cd *coder) entry(e dfg.SeqEntry) error {
	n := e.Node
	offs := e.Offsets[0]
	r0 := isa.Window(0)
	switch n.Op {
	case "const", "token", "join":
		if len(offs) == 0 {
			return nil // pure scheduling artifact
		}
		v := n.Aux.(int32)
		cd.result(offs, alu(isa.OpPlus, isa.Imm(v), isa.Imm(0), 0))
	case "cin":
		cd.result(offs, alu(isa.OpPlus, isa.Global(isa.RegCIn), isa.Imm(0), 0))
	case "cout":
		cd.result(offs, alu(isa.OpPlus, isa.Global(isa.RegCOut), isa.Imm(0), 0))
	case "id":
		cd.result(offs, alu(isa.OpPlus, r0, isa.Imm(0), 1))
	case "neg":
		cd.result(offs, alu(isa.OpMinus, isa.Imm(0), r0, 1))
	case "not":
		cd.result(offs, alu(isa.OpXor, r0, isa.Imm(-1), 1))
	case "fetch":
		s1, _, qp := operandSrcs(n, 1)
		cd.result(offs, alu(isa.OpFetch, s1, isa.Imm(0), qp))
	case "fchb":
		s1, _, qp := operandSrcs(n, 1)
		cd.result(offs, alu(isa.OpFchb, s1, isa.Imm(0), qp))
	case "storb":
		if len(offs) != 0 {
			return fmt.Errorf("storb with result offsets %v", offs)
		}
		s1b, s2b, qpb := operandSrcs(n, 2)
		cd.push(isa.Instr{Op: isa.OpStorb, Src1: s1b, Src2: s2b, QPInc: qpb,
			Dst1: isa.RegDummy, Dst2: isa.RegDummy})
	case "store":
		if len(offs) != 0 {
			return fmt.Errorf("store with result offsets %v", offs)
		}
		s1, s2, qp := operandSrcs(n, 2)
		cd.push(isa.Instr{Op: isa.OpStore, Src1: s1, Src2: s2, QPInc: qp,
			Dst1: isa.RegDummy, Dst2: isa.RegDummy})
	case "send":
		if len(offs) != 0 {
			return fmt.Errorf("send with result offsets %v", offs)
		}
		s1, s2, qp := operandSrcs(n, 2)
		cd.push(isa.Instr{Op: isa.OpSend, Src1: s1, Src2: s2, QPInc: qp,
			Dst1: isa.RegDummy, Dst2: isa.RegDummy})
	case "recv":
		s1, _, qp := operandSrcs(n, 1)
		cd.result(offs, alu(isa.OpRecv, s1, isa.Imm(0), qp))
	case "channew":
		cd.result(offs, alu(isa.OpTrap, isa.Imm(isa.KChanNew), isa.Imm(0), 0))
	case "now":
		cd.result(offs, alu(isa.OpTrap, isa.Imm(isa.KNow), isa.Imm(0), 0))
	case "wait":
		arg, _, qp := operandSrcs(n, 1)
		cd.result(offs, alu(isa.OpTrap, isa.Imm(isa.KWait), arg, qp))
	case "rfork":
		// Two results: trap into scratch globals, then copy each port
		// to its queue offsets.
		target, _, qp := operandSrcs(n, 1)
		cd.push(isa.Instr{Op: isa.OpTrap, Src1: isa.Imm(isa.KRFork), Src2: target,
			Dst1: scratch1, Dst2: scratch2, QPInc: qp, Cont: true})
		cd.result(e.Offsets[0], alu(isa.OpPlus, isa.Global(scratch1), isa.Imm(0), 0))
		cd.result(e.Offsets[1], alu(isa.OpPlus, isa.Global(scratch2), isa.Imm(0), 0))
	case "ifork":
		target, _, qp := operandSrcs(n, 1)
		cd.push(isa.Instr{Op: isa.OpTrap, Src1: isa.Imm(isa.KIFork), Src2: target,
			Dst1: scratch1, Dst2: isa.RegDummy, QPInc: qp, Cont: true})
		cd.result(e.Offsets[0], alu(isa.OpPlus, isa.Global(scratch1), isa.Imm(0), 0))
	default:
		op, ok := isa.ByMnemonic(n.Op)
		if !ok {
			return fmt.Errorf("coder: unknown node op %q", n.Op)
		}
		s1, s2, qp := operandSrcs(n, 2)
		cd.result(offs, alu(op, s1, s2, qp))
	}
	return nil
}
