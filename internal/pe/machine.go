package pe

import (
	"fmt"

	"queuemachine/internal/isa"
	"queuemachine/internal/trace"
)

// ActionKind discriminates the operations a processing element cannot
// complete by itself and hands to the surrounding system (message processor
// or kernel). The kind and its payload live inline in the Outcome rather
// than behind an interface so the execute path never boxes a value onto the
// heap.
type ActionKind uint8

const (
	// ActNone: the instruction completed locally.
	ActNone ActionKind = iota
	// ActSend asks the message system to send Val on channel Ch. The
	// context blocks until the rendezvous completes.
	ActSend
	// ActRecv asks the message system for a value from channel Ch. The
	// context blocks until a sender arrives; the value is delivered via
	// Machine.Complete.
	ActRecv
	// ActTrap invokes the kernel entry point Code with argument Arg;
	// results (if any) are delivered via Machine.Complete.
	ActTrap
)

// Outcome reports the execution of one instruction.
type Outcome struct {
	Cycles int
	// Act is non-ActNone when the instruction requires external
	// completion; the context must not execute further until the system
	// completes or resumes it.
	Act ActionKind
	// Ch and Val carry the ActSend payload; ActRecv uses Ch alone.
	Ch, Val int32
	// Code and Arg carry the ActTrap payload.
	Code, Arg int32
}

// Stats counts the events of one processing element's instruction stream.
type Stats struct {
	Instructions int64
	WindowHits   int64 // queue operands served by window registers
	WindowMisses int64 // queue operands fetched from the memory page
	MemOps       int64 // data memory accesses (fetch/store)
	ChannelOps   int64 // send/recv issued
	Traps        int64
	Branches     int64
	Cycles       int64 // total busy cycles accumulated by ExecOne
	// QueueSum accumulates the operand queue length sampled at every
	// instruction; QueueSum/Instructions is the mean queue length of
	// §5.2's page-utilization trade-off.
	QueueSum int64
}

// AvgQueueLength reports the mean operand queue span per instruction.
func (s *Stats) AvgQueueLength() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.QueueSum) / float64(s.Instructions)
}

// Program is an object file with its instruction streams pre-decoded for
// execution.
type Program struct {
	Obj *isa.Object
	// graphs[gi] is graph gi's stream, one slot per code word; the
	// streams share one backing array.
	graphs [][]decodedInstr
}

// instrClass is the execute path's dispatch class of an opcode.
type instrClass uint8

const (
	classALU instrClass = iota
	classBranch
	classMemory
	classChannel
	classTrap
	classDup
)

// decodedInstr is the pre-decoded slot of one code word. Its fields are
// only as wide as the instruction format of Figures 5.6–5.7 — a 6-bit
// opcode, per source a mode, a register number and an immediate, 5-bit
// destination registers or 8-bit dup offsets, a 3-bit QP increment — plus
// the opcode's dispatch class, source count and the instruction's length
// in words, so a slot is 20 bytes. It holds no pointers (the mnemonic, a
// string, is looked up only for a recorder), so the decoded streams of a
// cached program are memory the collector never scans.
type decodedInstr struct {
	imm1, imm2   int32 // source immediates (SrcSmallImm, SrcWordImm)
	op           isa.Opcode
	class        instrClass
	words        uint8 // 0 marks a slot that is not the start of an instruction
	srcs         uint8
	mode1, mode2 isa.SrcMode
	reg1, reg2   uint8 // source registers (SrcWindow, SrcGlobal)
	dst1, dst2   uint8 // destination registers, or dup queue offsets
	qpInc        uint8
	cont         bool
}

// classOf maps an opcode's static description to its dispatch class.
func classOf(op isa.Opcode, info isa.Info) instrClass {
	switch {
	case op == isa.OpDup1 || op == isa.OpDup2:
		return classDup
	case info.Branch:
		return classBranch
	case info.Memory:
		return classMemory
	case info.Channel:
		return classChannel
	case info.Trap:
		return classTrap
	}
	return classALU
}

// LoadProgram validates and pre-decodes an object program. Each graph's
// stream decodes into a dense array of slots indexed by program counter —
// the fetch on the simulator's hot path is an array load, not a map probe.
// A slot holds the instruction starting at that word in fields no wider
// than its encoding, with the opcode's dispatch class and source count
// cached alongside so execution never consults the opcode table; the slot
// of a word-immediate extension word is marked as holding no instruction.
// The streams stay word-indexed so that program counters — RegPC reads,
// computed jumps, recorder pcs and error texts — mean the same as in the
// object. All of a program's slots share one allocation. Validation and
// slot building share one decode of each word (isa.Object.Visit), so an
// object is rejected with exactly the error Validate gives it. A loaded
// program is read-only: any number of simulations may share one.
func LoadProgram(obj *isa.Object) (*Program, error) {
	words := 0
	for _, g := range obj.Graphs {
		words += len(g.Code)
	}
	slots := make([]decodedInstr, words)
	p := &Program{Obj: obj, graphs: make([][]decodedInstr, len(obj.Graphs))}
	for gi, g := range obj.Graphs {
		p.graphs[gi] = slots[:len(g.Code):len(g.Code)]
		slots = slots[len(g.Code):]
	}
	err := obj.Visit(func(gi, pc int, in isa.Instr, n int) {
		info, _ := isa.Lookup(in.Op)
		p.graphs[gi][pc] = decodedInstr{
			imm1: in.Src1.Imm, imm2: in.Src2.Imm,
			op: in.Op, class: classOf(in.Op, info), words: uint8(n), srcs: uint8(info.Srcs),
			mode1: in.Src1.Mode, mode2: in.Src2.Mode, reg1: uint8(in.Src1.Reg), reg2: uint8(in.Src2.Reg),
			dst1: uint8(in.Dst1), dst2: uint8(in.Dst2), qpInc: uint8(in.QPInc), cont: in.Cont,
		}
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// QueueWords returns the queue page size required by graph gi.
func (p *Program) QueueWords(gi int) int { return p.Obj.Graphs[gi].QueueWords }

// Machine executes contexts on one processing element.
type Machine struct {
	PEID   int
	Params Params
	Prog   *Program
	Mem    *Memory
	Stats  Stats
	rec    trace.Recorder
}

// NewMachine builds a processing element bound to a program and data memory.
func NewMachine(peID int, params Params, prog *Program, mem *Memory) *Machine {
	return &Machine{PEID: peID, Params: params, Prog: prog, Mem: mem}
}

// SetRecorder installs the instrumentation recorder (nil disables). With a
// recorder installed, every retired instruction is reported via the Instr
// hook; with none, the execute path pays a single nil check.
func (m *Machine) SetRecorder(rec trace.Recorder) { m.rec = rec }

// readSrc evaluates a source operand, returning its value and any extra
// cycles beyond the base instruction cost.
func (m *Machine) readSrc(c *Context, mode isa.SrcMode, reg uint8, imm int32) (int32, int, error) {
	switch mode {
	case isa.SrcSmallImm:
		return imm, 0, nil
	case isa.SrcWordImm:
		return imm, m.Params.ImmWord, nil
	case isa.SrcGlobal:
		switch reg {
		case isa.RegQP:
			return int32(c.QP), 0, nil
		case isa.RegPC:
			return int32(c.PC), 0, nil
		default:
			return c.Globals[reg-16], 0, nil
		}
	case isa.SrcWindow:
		idx, err := c.queueIndex(int(reg))
		if err != nil {
			return 0, 0, err
		}
		if c.inWindow[idx] {
			m.Stats.WindowHits++
			return c.Page[idx], 0, nil
		}
		m.Stats.WindowMisses++
		return c.Page[idx], m.Params.Mem, nil
	}
	return 0, 0, fmt.Errorf("pe: bad source mode %d", mode)
}

// writeReg writes a result to a destination register: window registers
// store into the queue page slot and set the presence bit; DUMMY discards;
// globals update the register file. A negative queue pointer would
// address no page slot, so writing one is an error.
func (m *Machine) writeReg(c *Context, reg int, val int32) error {
	switch {
	case reg < isa.NumWindowRegs:
		idx, err := c.queueIndex(reg)
		if err != nil {
			return err
		}
		c.Page[idx] = val
		if !c.inWindow[idx] {
			c.inWindow[idx] = true
			c.winCount++
		}
		if c.QP+reg > c.highWater {
			c.highWater = c.QP + reg
		}
		return nil
	case reg == isa.RegDummy:
		return nil
	case reg == isa.RegQP:
		if val < 0 {
			return fmt.Errorf("pe: context %d: queue pointer set to negative value %d", c.ID, val)
		}
		c.setQP(int(val))
		return nil
	case reg == isa.RegPC:
		c.PC = int(val)
		return nil
	default:
		c.Globals[reg-16] = val
		return nil
	}
}

// writeResult distributes an instruction's result to its two destination
// fields and records it for subsequent dup instructions.
func (m *Machine) writeResult(c *Context, d *decodedInstr, val int32) error {
	if err := m.writeReg(c, int(d.dst1), val); err != nil {
		return err
	}
	if err := m.writeReg(c, int(d.dst2), val); err != nil {
		return err
	}
	c.LastResult = val
	return nil
}

// advanceQP consumes n operands from the queue front, clearing the presence
// bits of the freed window registers.
func (c *Context) advanceQP(n int) {
	if n >= len(c.Page) {
		clear(c.inWindow)
		c.winCount = 0
		c.setQP(c.QP + n)
		return
	}
	idx := c.qpSlot
	for i := 0; i < n; i++ {
		if c.inWindow[idx] {
			c.inWindow[idx] = false
			c.winCount--
		}
		if idx++; idx == len(c.Page) {
			idx = 0
		}
	}
	c.QP += n
	c.qpSlot = idx
}

// ExecOne executes the instruction at the context's program counter. On a
// blocking action the program counter and queue pointer are already
// advanced; the pending destinations are stored in the context for
// Complete. `now` is the simulated time of the issue, used only for
// instrumentation.
//
// The simulator calls this for every simulated instruction, so it reads
// the decoded instruction in place and builds the outcome once, in one
// frame.
func (m *Machine) ExecOne(c *Context, now int64) (Outcome, error) {
	g := m.Prog.graphs[c.Graph]
	if c.PC < 0 || c.PC >= len(g) || g[c.PC].words == 0 {
		return Outcome{}, fmt.Errorf("pe: context %d: no instruction at graph %d pc %d", c.ID, c.Graph, c.PC)
	}
	d := &g[c.PC]
	graph, pc, wm := c.Graph, c.PC, m.Stats.WindowMisses
	m.Stats.Instructions++
	m.Stats.QueueSum += int64(c.QueueLength())
	// The outcome's fields stay in locals until the one return that
	// assembles it, so it travels back in registers.
	cycles := m.Params.ALU
	var (
		act       ActionKind
		ch, val   int32
		code, arg int32
	)

	if d.class == classDup {
		extra, err := m.execDup(c, d)
		if err != nil {
			return Outcome{}, err
		}
		cycles += extra
	} else {
		// Source operands.
		var v1, v2 int32
		if d.srcs >= 1 {
			v, extra, err := m.readSrc(c, d.mode1, d.reg1, d.imm1)
			if err != nil {
				return Outcome{}, err
			}
			v1, cycles = v, cycles+extra
		}
		if d.srcs >= 2 {
			v, extra, err := m.readSrc(c, d.mode2, d.reg2, d.imm2)
			if err != nil {
				return Outcome{}, err
			}
			v2, cycles = v, cycles+extra
		}

		// The QP increment takes effect after operand fetch, before results.
		c.advanceQP(int(d.qpInc))
		c.PC += int(d.words)

		switch d.class {
		case classBranch:
			m.Stats.Branches++
			cycles += m.Params.Branch - m.Params.ALU
			taken := isa.Truthy(v1)
			if d.op == isa.OpBeq {
				taken = !taken
			}
			if taken {
				c.PC += int(v2)
			}
		case classMemory:
			m.Stats.MemOps++
			extra, err := m.execMem(c, d, v1, v2)
			if err != nil {
				return Outcome{}, err
			}
			cycles += m.Params.Mem + extra
		case classChannel:
			m.Stats.ChannelOps++
			cycles += m.Params.ChanOp
			ch = v1
			if d.op == isa.OpSend {
				act, val = ActSend, v2
			} else {
				act = ActRecv
				c.PendDst1, c.PendDst2 = int(d.dst1), int(d.dst2)
			}
		case classTrap:
			if d.op == isa.OpFret || d.op == isa.OpRett {
				return Outcome{}, fmt.Errorf("pe: context %d: %v outside kernel mode", c.ID, d.op)
			}
			m.Stats.Traps++
			cycles += m.Params.Trap
			act, code, arg = ActTrap, v1, v2
			c.PendDst1, c.PendDst2 = int(d.dst1), int(d.dst2)
		default:
			// Logical, arithmetic or comparison operation.
			res, err := isa.EvalALU(d.op, v1, v2)
			if err != nil {
				return Outcome{}, fmt.Errorf("pe: context %d graph %d pc %d: %w", c.ID, c.Graph, c.PC, err)
			}
			if err := m.writeResult(c, d, res); err != nil {
				return Outcome{}, err
			}
		}
	}
	m.Stats.Cycles += int64(cycles)
	if m.rec != nil {
		// Presence-bit stall: window misses fetched from the memory page
		// each cost Params.Mem beyond the base instruction cycles (§5.2).
		stall := int(m.Stats.WindowMisses-wm) * m.Params.Mem
		info, _ := isa.Lookup(d.op)
		m.rec.Instr(m.PEID, c.ID, graph, pc, info.Mnemonic, now, cycles, stall)
	}
	return Outcome{Cycles: cycles, Act: act, Ch: ch, Val: val, Code: code, Arg: arg}, nil
}

// execDup executes a dup instruction: it writes the previous result
// directly into the memory page at the given offsets (§5.3.3: offsets
// below 16 also write memory, not the window). It returns the cycles
// beyond the base instruction cost.
func (m *Machine) execDup(c *Context, d *decodedInstr) (int, error) {
	// The offsets stay in a stack array: the hot loop must not allocate.
	cycles := 0
	offsets := [2]int{int(d.dst1), int(d.dst2)}
	n := 1
	if d.op == isa.OpDup2 {
		n = 2
	}
	for _, off := range offsets[:n] {
		if off >= len(c.Page) {
			return 0, fmt.Errorf("pe: context %d: dup offset %d exceeds queue page %d", c.ID, off, len(c.Page))
		}
		idx := c.slot(off)
		c.Page[idx] = c.LastResult
		if c.inWindow[idx] {
			c.inWindow[idx] = false
			c.winCount--
		}
		if c.QP+off > c.highWater {
			c.highWater = c.QP + off
		}
		cycles += m.Params.Mem
	}
	c.PC += int(d.words)
	return cycles, nil
}

// execMem performs a data-memory instruction's access and result write,
// returning the memory's extra cycles.
func (m *Machine) execMem(c *Context, d *decodedInstr, v1, v2 int32) (int, error) {
	var (
		word  int32
		extra int
		err   error
	)
	switch d.op {
	case isa.OpFetch:
		word, err = m.Mem.FetchWord(v1)
	case isa.OpFchb:
		word, err = m.Mem.FetchByte(v1)
	case isa.OpStore:
		extra, err = m.Mem.StoreWord(v1, v2)
	case isa.OpStorb:
		extra, err = m.Mem.StoreByte(v1, v2)
	}
	if err != nil {
		return 0, fmt.Errorf("pe: context %d: %w", c.ID, err)
	}
	if d.op == isa.OpFetch || d.op == isa.OpFchb {
		if err := m.writeResult(c, d, word); err != nil {
			return 0, err
		}
	}
	return extra, nil
}

// Complete delivers the result of a blocked recv or trap to the context's
// pending destinations (one value; Complete2 delivers a pair).
func (m *Machine) Complete(c *Context, val int32) error {
	if err := m.writeReg(c, c.PendDst1, val); err != nil {
		return err
	}
	if err := m.writeReg(c, c.PendDst2, val); err != nil {
		return err
	}
	c.LastResult = val
	c.PendDst1, c.PendDst2 = isa.RegDummy, isa.RegDummy
	return nil
}

// Complete2 delivers a two-result completion (the rfork trap: in channel to
// Dst1, out channel to Dst2).
func (m *Machine) Complete2(c *Context, val1, val2 int32) error {
	if err := m.writeReg(c, c.PendDst1, val1); err != nil {
		return err
	}
	if err := m.writeReg(c, c.PendDst2, val2); err != nil {
		return err
	}
	c.LastResult = val1
	c.PendDst1, c.PendDst2 = isa.RegDummy, isa.RegDummy
	return nil
}

// SwitchCost reports the cycle cost of switching away from context c with
// readyCount other contexts resident on the processing element.
func (m *Machine) SwitchCost(c *Context, readyCount int) int {
	cost := m.Params.SwitchBase + m.Params.ReadyScan*readyCount
	if c != nil {
		cost += m.Params.RollOut * c.RollOut()
	}
	return cost
}
