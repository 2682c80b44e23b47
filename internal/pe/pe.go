// Package pe emulates the queue machine processing element of Chapter 5.
//
// The processing element implements the indexed queue machine execution
// model with a sliding register window: the operand queue of the executing
// context lives in a page of memory, the queue pointer (QP) addresses its
// front, and the first sixteen queue elements are shadowed by window
// registers with presence bits. Operand reads hit the window registers when
// the presence bit is set and fall back to the memory-resident queue page
// otherwise; results written to destination registers 0–15 land in the
// window, while dup instructions write the memory page directly. On a
// context switch the occupied window registers are rolled out, which is the
// principal context-switch cost; a processor hosting a single blocked
// context resumes it with the window still warm, one of the two effects
// behind the multiprocessor's super-linear margin at small machine sizes
// (the other is aggregate message-cache capacity — see internal/mcache).
//
// The emulator executes one instruction at a time, returning its cycle cost
// per the three-stage pipeline budget of Figures 5.9–5.10 together with any
// action (channel operation or kernel trap) that must be completed by the
// surrounding system.
package pe

import (
	"fmt"

	"queuemachine/internal/isa"
)

// Params is the processing element timing model. All values are in cycles.
type Params struct {
	// ALU is the issue cost of a simple register-to-register instruction
	// (the three-stage pipeline sustains one per cycle).
	ALU int
	// ImmWord is the extra cost of each word immediate (one additional
	// instruction-stream fetch).
	ImmWord int
	// Mem is the cost of a local data-memory access, also paid when a
	// queue operand misses the window registers or a result bypasses
	// them.
	Mem int
	// Branch is the issue cost of a branch (pipeline refill on taken).
	Branch int
	// ChanOp is the processing-element-side cost of handing a send or
	// receive to the message processor.
	ChanOp int
	// Trap is the kernel entry/exit overhead of a trap instruction.
	Trap int
	// SwitchBase is the fixed part of a context switch.
	SwitchBase int
	// RollOut is the per-occupied-window-register cost of rolling the
	// window out to the queue page on a context switch.
	RollOut int
	// ReadyScan is the per-resident-context cost of selecting the next
	// context to run. The default kernel dispatches from a FIFO in
	// constant time (ReadyScan 0); a linear-scan kernel can be modelled
	// by setting it, at the price of wildly superlinear speed-ups.
	ReadyScan int
}

// DefaultParams is the timing model used throughout the Chapter 6
// experiments. The three-stage pipeline issues simple instructions every
// cycle; memory is four cycles; the kernel costs are those of a lean
// software kernel.
func DefaultParams() Params {
	return Params{
		ALU:        1,
		ImmWord:    1,
		Mem:        4,
		Branch:     2,
		ChanOp:     4,
		Trap:       12,
		SwitchBase: 10,
		RollOut:    2,
		ReadyScan:  0,
	}
}

// Status is a context's scheduling state (the state transition diagram of
// Figure 6.4).
type Status int

const (
	// Ready means the context can be dispatched on a processing element.
	Ready Status = iota
	// Running means the context is executing.
	Running
	// BlockedSend means the context waits for a partner to receive.
	BlockedSend
	// BlockedRecv means the context waits for a partner to send.
	BlockedRecv
	// BlockedWait means the context waits for simulated time to advance.
	BlockedWait
	// Done means the context has terminated.
	Done
)

func (s Status) String() string {
	switch s {
	case Ready:
		return "ready"
	case Running:
		return "running"
	case BlockedSend:
		return "blocked-send"
	case BlockedRecv:
		return "blocked-recv"
	case BlockedWait:
		return "blocked-wait"
	case Done:
		return "done"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Context is the complete state of one executing data-flow graph: its
// instruction sequence (graph index + program counter), its operand queue
// page, and its register set.
type Context struct {
	ID    int
	Graph int
	PC    int
	// QP is the virtual queue front. The physical page slot of queue
	// index i is i modulo the page size. Write it through setQP, which
	// keeps qpSlot.
	QP int
	// qpSlot is QP modulo the page size, so that the operand path finds
	// a window register's page slot without dividing.
	qpSlot int
	// Page is the memory-resident operand queue page.
	Page []int32
	// inWindow marks page slots whose value currently resides in a
	// window register (the presence bits). Only slots within the
	// 16-element window starting at QP can be marked.
	inWindow []bool
	// Globals are registers 16–31 (DUMMY, general purpose, CIn, COut,
	// NAR, POM; QP and PC are modelled by the fields above).
	Globals [16]int32
	Status  Status
	// LastResult feeds dup instructions.
	LastResult int32
	// PendDst1 and PendDst2 hold the destination registers of a blocked
	// recv or trap, to be written when the operation completes.
	PendDst1, PendDst2 int
	// highWater is the deepest queue index written so far; the live queue
	// span (§5.2's queue length, which divided by the page size gives the
	// page utilization) is highWater - QP + 1.
	highWater int
	// winCount tracks the number of set presence bits so RollOut can
	// report (and clear) them without scanning an empty page.
	winCount int
	// Parent records the creating context for diagnostics.
	Parent int
	// Priority is the context's static dispatch weight: the compiled
	// graph's §4.5 cost-analysis estimate of the computation it enables.
	// The kernel's priority scheduling policies dispatch higher values
	// first; the FIFO baseline ignores it.
	Priority int32
}

// NewContext allocates a context for the given graph with a queue page of
// the given size.
func NewContext(id, graph, pageWords int) *Context {
	return &Context{
		ID:        id,
		Graph:     graph,
		Page:      make([]int32, pageWords),
		inWindow:  make([]bool, pageWords),
		Status:    Ready,
		PendDst1:  isa.RegDummy,
		PendDst2:  isa.RegDummy,
		highWater: -1,
	}
}

// Reset reinitializes a recycled context in place, equivalent to
// NewContext(id, graph, len(c.Page)) without the two allocations. The
// kernel pools dead contexts and resets them on the fork path.
func (c *Context) Reset(id, graph int) {
	c.ID = id
	c.Graph = graph
	c.PC = 0
	c.QP = 0
	c.qpSlot = 0
	clear(c.Page)
	clear(c.inWindow)
	c.Globals = [16]int32{}
	c.Status = Ready
	c.LastResult = 0
	c.PendDst1 = isa.RegDummy
	c.PendDst2 = isa.RegDummy
	c.highWater = -1
	c.winCount = 0
	c.Parent = 0
	c.Priority = 0
}

// QueueLength reports the context's current operand queue span.
func (c *Context) QueueLength() int {
	if c.highWater < c.QP {
		return 0
	}
	return c.highWater - c.QP + 1
}

// In and Out are the context's channel identifiers (kernel convention:
// global registers 26 and 27).
func (c *Context) In() int32  { return c.Globals[isa.RegCIn-16] }
func (c *Context) Out() int32 { return c.Globals[isa.RegCOut-16] }

// SetChannels installs the context's in and out channel identifiers.
func (c *Context) SetChannels(in, out int32) {
	c.Globals[isa.RegCIn-16] = in
	c.Globals[isa.RegCOut-16] = out
}

// WindowOccupancy reports how many window registers currently hold values —
// the roll-out cost driver of a context switch.
func (c *Context) WindowOccupancy() int {
	n := 0
	for i := 0; i < isa.NumWindowRegs && i < len(c.Page); i++ {
		if c.inWindow[c.slot(i)] {
			n++
		}
	}
	return n
}

// RollOut clears all presence bits, modelling the register roll-out done on
// a context switch, and reports how many registers were occupied. The
// values themselves persist in the memory-resident page (the emulator keeps
// page and window coherent and uses the presence bits purely for cost
// accounting, which matches the architecture: a value is always rolled out
// to its own page slot).
func (c *Context) RollOut() int {
	n := c.winCount
	if n == 0 {
		return 0
	}
	// The set bits lie in the window at the queue front unless a qp write
	// has moved the front away from them, so the scan starts there.
	cleared := 0
	for i, idx := 0, c.qpSlot; i < len(c.inWindow) && cleared < n; i++ {
		if c.inWindow[idx] {
			c.inWindow[idx] = false
			cleared++
		}
		if idx++; idx == len(c.inWindow) {
			idx = 0
		}
	}
	c.winCount = 0
	return n
}

// queueIndex converts a window register number to the context's physical
// page slot, verifying the window bound.
func (c *Context) queueIndex(reg int) (int, error) {
	if reg < 0 || reg >= isa.NumWindowRegs {
		return 0, fmt.Errorf("pe: window register %d out of range", reg)
	}
	if reg >= len(c.Page) {
		return 0, fmt.Errorf("pe: window register %d beyond queue page of %d words", reg, len(c.Page))
	}
	return c.slot(reg), nil
}

// slot returns the page slot of the queue element off places past the
// front, for 0 <= off < len(c.Page).
func (c *Context) slot(off int) int {
	i := c.qpSlot + off
	if i >= len(c.Page) {
		i -= len(c.Page)
	}
	return i
}

// setQP moves the queue front to qp >= 0.
func (c *Context) setQP(qp int) {
	c.QP = qp
	if len(c.Page) > 0 {
		c.qpSlot = qp % len(c.Page)
	}
}
