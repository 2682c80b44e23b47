package pe

import (
	"fmt"

	"queuemachine/internal/isa"
	"queuemachine/internal/trace"
)

// MemoryBus provides data-memory access to the processing element. The
// implementation decides locality: the multiprocessor interleaves the data
// segment across processing-element memories and charges ring latency for
// remote words. The returned cycles are *additional* cost beyond the
// processing element's base memory cycle count.
type MemoryBus interface {
	FetchWord(peID int, byteAddr int32) (int32, int, error)
	StoreWord(peID int, byteAddr, val int32) (int, error)
	FetchByte(peID int, byteAddr int32) (int32, int, error)
	StoreByte(peID int, byteAddr, val int32) (int, error)
}

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
	Obj    *isa.Object
	graphs [][]decodedInstr
}

// decodedInstr is one pre-decoded instruction with the opcode's static
// properties the execute path reads. It holds no pointers (the mnemonic,
// a string, is looked up only for a recorder), so the decoded streams of
// a cached program are memory the collector never scans.
type decodedInstr struct {
	in                            isa.Instr
	words                         int // 0 marks a slot that is not the start of an instruction
	srcs                          uint8
	branch, memory, channel, trap bool
}

// LoadProgram validates and pre-decodes an object program. Each graph's
// stream decodes into a dense array indexed by program counter — the fetch
// on the simulator's hot path is an array load, not a map probe — with the
// opcode's source count and class flags cached alongside so execution never
// consults the opcode table. A loaded program is read-only: any number of
// simulations may share one.
func LoadProgram(obj *isa.Object) (*Program, error) {
	if err := obj.Validate(); err != nil {
		return nil, err
	}
	p := &Program{Obj: obj, graphs: make([][]decodedInstr, len(obj.Graphs))}
	for gi, g := range obj.Graphs {
		code := make([]decodedInstr, len(g.Code))
		for pc := 0; pc < len(g.Code); {
			in, n, err := isa.Decode(g.Code[pc:])
			if err != nil {
				return nil, fmt.Errorf("pe: graph %q pc %d: %w", g.Name, pc, err)
			}
			info, _ := isa.Lookup(in.Op)
			code[pc] = decodedInstr{in: in, words: n, srcs: uint8(info.Srcs),
				branch: info.Branch, memory: info.Memory, channel: info.Channel, trap: info.Trap}
			pc += n
		}
		p.graphs[gi] = code
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
	Mem    MemoryBus
	Stats  Stats
	rec    trace.Recorder
}

// NewMachine builds a processing element bound to a program and memory bus.
func NewMachine(peID int, params Params, prog *Program, mem MemoryBus) *Machine {
	return &Machine{PEID: peID, Params: params, Prog: prog, Mem: mem}
}

// SetRecorder installs the instrumentation recorder (nil disables). With a
// recorder installed, every retired instruction is reported via the Instr
// hook; with none, the execute path pays a single nil check.
func (m *Machine) SetRecorder(rec trace.Recorder) { m.rec = rec }

// readSrc evaluates a source operand, returning its value and any extra
// cycles beyond the base instruction cost.
func (m *Machine) readSrc(c *Context, s *isa.Src) (int32, int, error) {
	switch s.Mode {
	case isa.SrcSmallImm:
		return s.Imm, 0, nil
	case isa.SrcWordImm:
		return s.Imm, m.Params.ImmWord, nil
	case isa.SrcGlobal:
		switch s.Reg {
		case isa.RegQP:
			return int32(c.QP), 0, nil
		case isa.RegPC:
			return int32(c.PC), 0, nil
		default:
			return c.Globals[s.Reg-16], 0, nil
		}
	case isa.SrcWindow:
		idx, err := c.queueIndex(s.Reg)
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
	return 0, 0, fmt.Errorf("pe: bad source mode %d", s.Mode)
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
func (m *Machine) writeResult(c *Context, in *isa.Instr, val int32) error {
	if err := m.writeReg(c, in.Dst1, val); err != nil {
		return err
	}
	if err := m.writeReg(c, in.Dst2, val); err != nil {
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
	in := &d.in
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

	if in.IsDup() {
		extra, err := m.execDup(c, d)
		if err != nil {
			return Outcome{}, err
		}
		cycles += extra
	} else {
		// Source operands.
		var v1, v2 int32
		if d.srcs >= 1 {
			v, extra, err := m.readSrc(c, &in.Src1)
			if err != nil {
				return Outcome{}, err
			}
			v1, cycles = v, cycles+extra
		}
		if d.srcs >= 2 {
			v, extra, err := m.readSrc(c, &in.Src2)
			if err != nil {
				return Outcome{}, err
			}
			v2, cycles = v, cycles+extra
		}

		// The QP increment takes effect after operand fetch, before results.
		c.advanceQP(in.QPInc)
		c.PC += d.words

		switch {
		case d.branch:
			m.Stats.Branches++
			cycles += m.Params.Branch - m.Params.ALU
			taken := isa.Truthy(v1)
			if in.Op == isa.OpBeq {
				taken = !taken
			}
			if taken {
				c.PC += int(v2)
			}
		case d.memory:
			m.Stats.MemOps++
			extra, err := m.execMem(c, in, v1, v2)
			if err != nil {
				return Outcome{}, err
			}
			cycles += m.Params.Mem + extra
		case d.channel:
			m.Stats.ChannelOps++
			cycles += m.Params.ChanOp
			ch = v1
			if in.Op == isa.OpSend {
				act, val = ActSend, v2
			} else {
				act = ActRecv
				c.PendDst1, c.PendDst2 = in.Dst1, in.Dst2
			}
		case d.trap:
			if in.Op == isa.OpFret || in.Op == isa.OpRett {
				return Outcome{}, fmt.Errorf("pe: context %d: %v outside kernel mode", c.ID, in.Op)
			}
			m.Stats.Traps++
			cycles += m.Params.Trap
			act, code, arg = ActTrap, v1, v2
			c.PendDst1, c.PendDst2 = in.Dst1, in.Dst2
		default:
			// Logical, arithmetic or comparison operation.
			res, err := isa.EvalALU(in.Op, v1, v2)
			if err != nil {
				return Outcome{}, fmt.Errorf("pe: context %d graph %d pc %d: %w", c.ID, c.Graph, c.PC, err)
			}
			if err := m.writeResult(c, in, res); err != nil {
				return Outcome{}, err
			}
		}
	}
	m.Stats.Cycles += int64(cycles)
	if m.rec != nil {
		// Presence-bit stall: window misses fetched from the memory page
		// each cost Params.Mem beyond the base instruction cycles (§5.2).
		stall := int(m.Stats.WindowMisses-wm) * m.Params.Mem
		info, _ := isa.Lookup(in.Op)
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
	offsets := [2]int{d.in.Dst1, d.in.Dst2}
	n := 1
	if d.in.Op == isa.OpDup2 {
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
	c.PC += d.words
	return cycles, nil
}

// execMem performs a data-memory instruction's access and result write,
// returning the bus's extra cycles.
func (m *Machine) execMem(c *Context, in *isa.Instr, v1, v2 int32) (int, error) {
	var (
		word  int32
		extra int
		err   error
	)
	switch in.Op {
	case isa.OpFetch:
		word, extra, err = m.Mem.FetchWord(m.PEID, v1)
	case isa.OpFchb:
		word, extra, err = m.Mem.FetchByte(m.PEID, v1)
	case isa.OpStore:
		extra, err = m.Mem.StoreWord(m.PEID, v1, v2)
	case isa.OpStorb:
		extra, err = m.Mem.StoreByte(m.PEID, v1, v2)
	}
	if err != nil {
		return 0, fmt.Errorf("pe: context %d: %w", c.ID, err)
	}
	if in.Op == isa.OpFetch || in.Op == isa.OpFchb {
		if err := m.writeResult(c, in, word); err != nil {
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
