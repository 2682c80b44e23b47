package pe

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"queuemachine/internal/asm"
	"queuemachine/internal/isa"
)

// runToExit executes a single context until it traps to KExit, failing on
// any other action.
func runToExit(t *testing.T, m *Machine, c *Context, maxInstr int) int {
	t.Helper()
	cycles := 0
	for i := 0; i < maxInstr; i++ {
		out, err := m.ExecOne(c, 0)
		if err != nil {
			t.Fatalf("ExecOne: %v", err)
		}
		cycles += out.Cycles
		switch out.Act {
		case ActNone:
		case ActTrap:
			if out.Code == isa.KExit {
				return cycles
			}
			t.Fatalf("unexpected trap %d", out.Code)
		default:
			t.Fatalf("unexpected action %d", out.Act)
		}
	}
	t.Fatal("context did not exit")
	return cycles
}

func load(t *testing.T, src string) (*Machine, *Context, *Memory) {
	t.Helper()
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	prog, err := LoadProgram(obj)
	if err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	mem := NewMemory(obj.DataWords+64, obj.DataInit, 0)
	m := NewMachine(0, DefaultParams(), prog, mem)
	c := NewContext(0, obj.Entry, prog.QueueWords(obj.Entry))
	return m, c, mem
}

// TestTable31Program runs the Table 3.1 queue-machine program for
// f := a*b + (c-d)/e end to end on the processing element.
func TestTable31Program(t *testing.T) {
	m, c, mem := load(t, `
.data 6
.init 0 7
.init 1 3
.init 2 20
.init 3 6
.init 4 2
.graph main queue=32
	fetch #8 :r0       ; c  (byte address 2*4)
	fetch #12 :r1      ; d
	fetch #0 :r2       ; a
	fetch #4 :r3       ; b
	minus++ r0,r1 :r2
	fetch #16 :r3      ; e
	mul++ r0,r1 :r2
	div++ r0,r1 :r1
	plus++ r0,r1 :r0
	store #20,r0
	trap #0,#0
`)
	runToExit(t, m, c, 100)
	if got := mem.Words()[5]; got != 7*3+(20-6)/2 {
		t.Errorf("f = %d, want %d", got, 7*3+(20-6)/2)
	}
	if m.Stats.Instructions != 11 {
		t.Errorf("instructions = %d", m.Stats.Instructions)
	}
	// All queue operands were produced into window registers, so every
	// queue read must be a window hit.
	if m.Stats.WindowMisses != 0 {
		t.Errorf("window misses = %d", m.Stats.WindowMisses)
	}
}

// TestWindowRegisterSemantics checks the sliding window: values written to
// r2/r3 are found at r0/r1 after the QP advances by 2.
func TestWindowRegisterSemantics(t *testing.T) {
	m, c, _ := load(t, `
.graph main queue=32
	plus #5,#0 :r0
	plus #6,#0 :r1
	plus #7,#0 :r2
	plus++ r0,r1 :r1   ; consumes 5,6 -> queue now 7,11
	plus++ r0,r1 :r0   ; 7+11 = 18
	store #0,r0
	trap #0,#0
`)
	m.Prog.Obj.DataWords = 1
	runToExit(t, m, c, 100)
	if got := m.Mem.Words()[0]; got != 18 {
		t.Errorf("result = %d, want 18", got)
	}
}

func TestDupWritesMemoryPage(t *testing.T) {
	m, c, _ := load(t, `
.graph main queue=32
	plus #9,#0 :r0 >
	dup2 :r1,r17
	plus+2 r0,r1 :r0   ; 9+9 = 18, consumes 2
	fetch r0 :r1       ; the dup at offset 17 wrote past the window
	trap #0,#0
`)
	// Execute the first two instructions and inspect presence bits.
	for i := 0; i < 2; i++ {
		if _, err := m.ExecOne(c, 0); err != nil {
			t.Fatal(err)
		}
	}
	// r0 was written by plus (window); r1 and r17 by dup (memory only).
	if !c.inWindow[0] {
		t.Error("r0 should be in the window")
	}
	if c.inWindow[1] || c.inWindow[17] {
		t.Error("dup destinations must bypass the window registers")
	}
	if c.Page[0] != 9 || c.Page[1] != 9 || c.Page[17] != 9 {
		t.Errorf("page = %v", c.Page[:18])
	}
	// The plus that consumes r0,r1 sees one hit (r0) and one miss (r1).
	hits, misses := m.Stats.WindowHits, m.Stats.WindowMisses
	if _, err := m.ExecOne(c, 0); err != nil {
		t.Fatal(err)
	}
	if m.Stats.WindowHits != hits+1 || m.Stats.WindowMisses != misses+1 {
		t.Errorf("hits %d->%d misses %d->%d", hits, m.Stats.WindowHits, misses, m.Stats.WindowMisses)
	}
	if c.Page[2] != 18 {
		t.Errorf("sum = %d", c.Page[2])
	}
}

func TestBranchLoop(t *testing.T) {
	// Sum 1..10 with a conventional register loop (Von Neumann mode).
	m, c, mem := load(t, `
.data 1
.graph main queue=32
	plus #0,#0 :r17    ; sum
	plus #10,#0 :r18   ; i
loop:
	plus r17,r18 :r17
	minus r18,#1 :r18
	gt r18,#0 :r0
	bne+1 r0,@loop
	store #0,r17
	trap #0,#0
`)
	runToExit(t, m, c, 200)
	if got := mem.Words()[0]; got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestByteOps(t *testing.T) {
	m, c, mem := load(t, `
.data 2
.graph main queue=32
	storb #1,#171      ; write 0xAB into byte 1 of word 0
	fchb #1 :r0
	store #4,r0
	trap #0,#0
`)
	runToExit(t, m, c, 100)
	if got := mem.Words()[1]; got != 171 {
		t.Errorf("byte = %d, want 171", got)
	}
	if mem.Words()[0] != 171<<8 {
		t.Errorf("word0 = %#x", mem.Words()[0])
	}
}

func TestSendRecvActions(t *testing.T) {
	m, c, _ := load(t, `
.graph main queue=32
	plus #3,#0 :r0
	send+1 #7,r0
	recv #7 :r0
	trap #0,#0
`)
	if _, err := m.ExecOne(c, 0); err != nil {
		t.Fatal(err)
	}
	out, err := m.ExecOne(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Act != ActSend || out.Ch != 7 || out.Val != 3 {
		t.Fatalf("send action = %#v", out)
	}
	out, err = m.ExecOne(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Act != ActRecv || out.Ch != 7 {
		t.Fatalf("recv action = %#v", out)
	}
	// Deliver the value and check it lands in r0.
	if err := m.Complete(c, 42); err != nil {
		t.Fatal(err)
	}
	idx := c.QP % len(c.Page)
	if c.Page[idx] != 42 || !c.inWindow[idx] {
		t.Error("recv completion did not write r0")
	}
}

func TestTrapChannels(t *testing.T) {
	m, c, _ := load(t, `
.graph main queue=32
	trap #1,#0 :r17,r18
	trap #0,#0
`)
	out, err := m.ExecOne(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Act != ActTrap || out.Code != isa.KRFork {
		t.Fatalf("action = %#v", out)
	}
	if err := m.Complete2(c, 100, 101); err != nil {
		t.Fatal(err)
	}
	if c.Globals[1] != 100 || c.Globals[2] != 101 {
		t.Errorf("globals = %v", c.Globals[:3])
	}
}

func TestContextChannels(t *testing.T) {
	c := NewContext(1, 0, 32)
	c.SetChannels(5, 9)
	if c.In() != 5 || c.Out() != 9 {
		t.Error("channel registers broken")
	}
}

func TestRollOutAndSwitchCost(t *testing.T) {
	m, c, _ := load(t, `
.graph main queue=32
	plus #1,#0 :r0
	plus #2,#0 :r1
	plus #3,#0 :r2
	trap #0,#0
`)
	for i := 0; i < 3; i++ {
		if _, err := m.ExecOne(c, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.WindowOccupancy(); got != 3 {
		t.Errorf("occupancy = %d", got)
	}
	p := DefaultParams()
	want := p.SwitchBase + p.ReadyScan*2 + p.RollOut*3
	if got := m.SwitchCost(c, 2); got != want {
		t.Errorf("SwitchCost = %d, want %d", got, want)
	}
	if c.WindowOccupancy() != 0 {
		t.Error("RollOut did not clear presence bits")
	}
	// Values survive the roll-out in the memory page.
	if c.Page[0] != 1 || c.Page[1] != 2 || c.Page[2] != 3 {
		t.Errorf("page = %v", c.Page[:3])
	}
	if got := m.SwitchCost(nil, 0); got != p.SwitchBase {
		t.Errorf("idle switch = %d", got)
	}
}

func TestQueuePageWrapAround(t *testing.T) {
	// A page of 32 words with a long chain of single-slot passes must
	// wrap the queue pointer without corruption.
	var b strings.Builder
	b.WriteString(".data 1\n.graph main queue=32\n\tplus #1,#0 :r0\n")
	for i := 0; i < 100; i++ {
		b.WriteString("\tplus+1 r0,#1 :r0\n")
	}
	b.WriteString("\tstore+1 #0,r0\n\ttrap #0,#0\n")
	m, c, mem := load(t, b.String())
	runToExit(t, m, c, 300)
	if got := mem.Words()[0]; got != 101 {
		t.Errorf("result = %d, want 101", got)
	}
	if c.QP != 101 {
		t.Errorf("QP = %d", c.QP)
	}
}

func TestErrors(t *testing.T) {
	m, c, _ := load(t, `
.graph main queue=32
	div #1,#0 :r0
	trap #0,#0
`)
	if _, err := m.ExecOne(c, 0); err == nil || !strings.Contains(err.Error(), "division") {
		t.Errorf("division by zero: %v", err)
	}

	// Bad PC.
	c2 := NewContext(1, 0, 32)
	c2.PC = 999
	if _, err := m.ExecOne(c2, 0); err == nil {
		t.Error("bad PC accepted")
	}

	// Memory fault.
	m3, c3, _ := load(t, `
.graph main queue=32
	fetch #-4 :r0
	trap #0,#0
`)
	if _, err := m3.ExecOne(c3, 0); err == nil {
		t.Error("negative address accepted")
	}
	_ = c
}

func TestMemoryBounds(t *testing.T) {
	mem := NewMemory(2, nil, 0)
	if _, err := mem.FetchWord(8); err == nil {
		t.Error("out of bounds fetch accepted")
	}
	if _, err := mem.StoreWord(5, 1); err == nil {
		t.Error("unaligned store accepted")
	}
	if _, err := mem.FetchByte(100); err == nil {
		t.Error("out of bounds byte accepted")
	}
	if _, err := mem.StoreByte(-1, 1); err == nil {
		t.Error("negative byte address accepted")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Ready: "ready", Running: "running", BlockedSend: "blocked-send",
		BlockedRecv: "blocked-recv", BlockedWait: "blocked-wait", Done: "done",
	} {
		if s.String() != want {
			t.Errorf("%d = %q", int(s), s.String())
		}
	}
	if !strings.Contains(Status(42).String(), "42") {
		t.Error("unknown status")
	}
}

// TestNegativeQPWrite: a negative queue pointer addresses no page slot, so
// writing one is a structured error naming the context and the value
// rather than an index panic on the next window read.
func TestNegativeQPWrite(t *testing.T) {
	m, c, _ := load(t, `
.graph main queue=32
	plus #-1,#0 :qp
	plus r0,#0 :r1
	trap #0,#0
`)
	_, err := m.ExecOne(c, 0)
	if err == nil || !strings.Contains(err.Error(), "pe: context 0") || !strings.Contains(err.Error(), "-1") {
		t.Fatalf("negative QP write: %v", err)
	}

	// The same through a completion: a recv or trap into qp.
	c2 := NewContext(1, 0, 32)
	c2.PendDst1 = isa.RegQP
	if err := m.Complete(c2, -5); err == nil || !strings.Contains(err.Error(), "pe: context 1") || !strings.Contains(err.Error(), "-5") {
		t.Fatalf("negative QP completion: %v", err)
	}
}

// TestQPSlotTracksQP: however the queue pointer moves — operand
// consumption past the page end, consumption of a whole page or more, and
// explicit writes — the cached page slot of the queue front stays QP
// modulo the page size, so window reads find the values written.
func TestQPSlotTracksQP(t *testing.T) {
	c := NewContext(0, 0, 8)
	check := func(step string) {
		t.Helper()
		if want := c.QP % len(c.Page); c.slot(0) != want {
			t.Fatalf("%s: QP %d has slot %d, want %d", step, c.QP, c.slot(0), want)
		}
	}
	for i := 0; i < 11; i++ {
		c.advanceQP(1 + i%3)
		check(fmt.Sprintf("advance %d", i))
	}
	c.advanceQP(8)
	check("advance a page")
	c.advanceQP(21)
	check("advance past a page")
	m := &Machine{}
	for _, qp := range []int32{0, 7, 8, 13, 1 << 20} {
		if err := m.writeReg(c, isa.RegQP, qp); err != nil {
			t.Fatalf("QP write %d: %v", qp, err)
		}
		check(fmt.Sprintf("write %d", qp))
		if err := m.writeReg(c, 3, qp+100); err != nil {
			t.Fatal(err)
		}
		if got := c.Page[(c.QP+3)%len(c.Page)]; got != qp+100 {
			t.Fatalf("after QP write %d: r3 landed elsewhere (slot holds %d)", qp, got)
		}
	}
	// The writes above left presence bits behind the moved queue front;
	// a roll-out still finds and clears every one.
	set := 0
	for _, b := range c.inWindow {
		if b {
			set++
		}
	}
	if n := c.RollOut(); n != set || set == 0 || slices.Contains(c.inWindow, true) {
		t.Fatalf("roll-out after QP writes: %d registers of %d, %v still present", n, set, c.inWindow)
	}
}

// hasPointers reports whether a value of type t holds any pointer the
// garbage collector must trace.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestDecodedInstrHoldsNoPointers keeps a loaded program's instruction
// streams out of the collector's scan: servers cache loaded programs for
// the life of the process, and a pointer-free element type makes each
// stream a span the mark phase skips.
func TestDecodedInstrHoldsNoPointers(t *testing.T) {
	if !hasPointers(reflect.TypeOf(isa.Info{})) {
		t.Fatal("hasPointers misses isa.Info's mnemonic string")
	}
	if hasPointers(reflect.TypeOf(decodedInstr{})) {
		t.Errorf("decodedInstr holds a pointer: %+v", reflect.TypeOf(decodedInstr{}))
	}
}

// TestDecodedInstrSize keeps a loaded program near the size of its object
// code: one slot per code word, no wider than 24 bytes.
func TestDecodedInstrSize(t *testing.T) {
	if size := unsafe.Sizeof(decodedInstr{}); size > 24 {
		t.Errorf("decodedInstr is %d bytes, want at most 24", size)
	}
}

// FuzzLoadProgram loads a one-graph object of arbitrary code words:
// LoadProgram must fail exactly when the object fails validation, and
// every program it accepts must decode slot for slot as isa.Decode reads
// the words.
func FuzzLoadProgram(f *testing.F) {
	obj, err := asm.Assemble(`
.graph main queue=32
	plus++ r0,#100000 :r0,r2
	dup2 :r3,r200 >
	bne r1,#-2
	fetch #4 :qp
	trap #0,#0
`)
	if err != nil {
		f.Fatal(err)
	}
	var valid []byte
	for _, w := range obj.Graphs[0].Code {
		valid = binary.LittleEndian.AppendUint32(valid, w)
	}
	f.Add(valid, uint16(32))
	f.Add(valid[:8], uint16(32)) // a truncated word immediate
	f.Add(valid, uint16(48))     // not a power of two
	f.Add([]byte{}, uint16(1))
	f.Fuzz(func(t *testing.T, b []byte, queue uint16) {
		code := make([]uint32, len(b)/4)
		for i := range code {
			code[i] = binary.LittleEndian.Uint32(b[4*i:])
		}
		obj := &isa.Object{Graphs: []isa.GraphCode{{Name: "g", Code: code, QueueWords: int(queue)}}}
		verr := obj.Validate()
		prog, err := LoadProgram(obj)
		if (err == nil) != (verr == nil) {
			t.Fatalf("LoadProgram error %v, Validate error %v", err, verr)
		}
		if err != nil {
			return
		}
		if err := CheckSlots(prog); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLoadProgramErrorTexts: LoadProgram validates while it builds the
// slots, and rejects each malformed object with exactly the text
// Validate gives it.
func TestLoadProgramErrorTexts(t *testing.T) {
	good, err := asm.Assemble(`
.graph main queue=32
	plus++ r0,#100000 :r0,r2
	bne r1,#-2
	trap #0,#0
`)
	if err != nil {
		t.Fatal(err)
	}
	code := good.Graphs[0].Code
	far, err := isa.Instr{Op: isa.OpBne, Src1: isa.Window(1), Src2: isa.Imm(15)}.Encode()
	if err != nil || len(far) != 1 {
		t.Fatalf("encode far branch: %v %v", far, err)
	}
	with := func(f func(o *isa.Object)) *isa.Object {
		o := *good
		o.Graphs = []isa.GraphCode{good.Graphs[0]}
		o.Graphs[0].Code = slices.Clone(code)
		f(&o)
		return &o
	}
	cases := map[string]*isa.Object{
		"no graphs":     with(func(o *isa.Object) { o.Graphs = nil }),
		"entry":         with(func(o *isa.Object) { o.Entry = 1 }),
		"queue page":    with(func(o *isa.Object) { o.Graphs[0].QueueWords = 48 }),
		"opcode":        with(func(o *isa.Object) { o.Graphs[0].Code[2] = 0xffffffff }),
		"truncated":     with(func(o *isa.Object) { o.Graphs[0].Code = o.Graphs[0].Code[:1] }),
		"branch target": with(func(o *isa.Object) { o.Graphs[0].Code[2] = far[0] }),
		"data init":     with(func(o *isa.Object) { o.DataInit = map[int]int32{5: 1} }),
		"first of two":  with(func(o *isa.Object) { o.Graphs[0].QueueWords = 3; o.DataInit = map[int]int32{-1: 1} }),
		"second graph": with(func(o *isa.Object) {
			o.Graphs = append(o.Graphs, isa.GraphCode{Name: "g2", Code: []uint32{0xffffffff}, QueueWords: 32})
		}),
		"unknown trails": with(func(o *isa.Object) { o.Graphs[0].Code = append(o.Graphs[0].Code, 0xffffffff) }),
	}
	for name, obj := range cases {
		verr := obj.Validate()
		if verr == nil {
			t.Errorf("%s: Validate accepts the object", name)
			continue
		}
		_, err := LoadProgram(obj)
		if err == nil || err.Error() != verr.Error() {
			t.Errorf("%s: LoadProgram error %v, Validate error %q", name, err, verr)
		}
	}
}
