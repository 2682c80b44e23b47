package pe

import (
	"fmt"

	"queuemachine/internal/isa"
)

// SlotInstr rebuilds the instruction held in slot pc of graph gi's
// stream and its length in words; a length of 0 marks a slot that holds
// no instruction.
func (p *Program) SlotInstr(gi, pc int) (isa.Instr, int) {
	d := &p.graphs[gi][pc]
	return isa.Instr{
		Op:    d.op,
		Src1:  isa.Src{Mode: d.mode1, Reg: int(d.reg1), Imm: d.imm1},
		Src2:  isa.Src{Mode: d.mode2, Reg: int(d.reg2), Imm: d.imm2},
		Dst1:  int(d.dst1),
		Dst2:  int(d.dst2),
		QPInc: int(d.qpInc),
		Cont:  d.cont,
	}, int(d.words)
}

// CheckSlots verifies a loaded program against its object: every graph
// has one slot per code word, each slot where an instruction starts
// rebuilds exactly the instruction and length isa.Decode reads there, and
// each word-immediate extension word's slot holds no instruction.
func CheckSlots(p *Program) error {
	for gi, g := range p.Obj.Graphs {
		if len(p.graphs[gi]) != len(g.Code) {
			return fmt.Errorf("graph %q: %d slots for %d words", g.Name, len(p.graphs[gi]), len(g.Code))
		}
		for pc := 0; pc < len(g.Code); {
			want, n, err := isa.Decode(g.Code[pc:])
			if err != nil {
				return fmt.Errorf("graph %q pc %d: %v", g.Name, pc, err)
			}
			if got, words := p.SlotInstr(gi, pc); got != want || words != n {
				return fmt.Errorf("graph %q pc %d: slot rebuilds %+v (%d words), decode gives %+v (%d words)",
					g.Name, pc, got, words, want, n)
			}
			for k := pc + 1; k < pc+n; k++ {
				if _, words := p.SlotInstr(gi, k); words != 0 {
					return fmt.Errorf("graph %q pc %d: immediate word's slot holds a %d-word instruction", g.Name, k, words)
				}
			}
			pc += n
		}
	}
	return nil
}
