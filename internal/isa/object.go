package isa

import "fmt"

// GraphCode is the object code of one acyclic data-flow graph: an
// indexed-queue-machine instruction sequence that executes within a single
// context. Graphs are pure code and may be executing in any number of
// contexts simultaneously (pseudo-static reentrancy).
type GraphCode struct {
	Name string
	// Code is the instruction stream; program-counter values index this
	// slice (word addressing within the graph).
	Code []uint32
	// QueueWords is the operand-queue page size the graph requires, a
	// power of two between 32 and MaxQueuePage.
	QueueWords int
	// Weight is the graph's static scheduling weight from the §4.5 cost
	// analysis: the total computation cost enabled by running a context of
	// this graph. Priority scheduling policies dispatch heavier contexts
	// first; zero (absent in hand-written or pre-weight objects) degrades
	// them to FIFO order.
	Weight int `json:",omitempty"`
}

// Object is a complete queue machine program: a collection of graph
// instruction sequences plus a static data segment (used for vectors and
// other side-effect-bearing storage, sequenced by control tokens).
type Object struct {
	Graphs []GraphCode
	// Entry is the index of the graph executed by the initial context.
	Entry int
	// DataWords is the size of the static data segment in words.
	DataWords int
	// DataInit holds initial values for data words, keyed by word index
	// within the segment.
	DataInit map[int]int32
	// SourceName records the compiled program's name for diagnostics.
	SourceName string
}

// GraphIndex returns the index of the named graph.
func (o *Object) GraphIndex(name string) (int, error) {
	for i, g := range o.Graphs {
		if g.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("isa: no graph named %q", name)
}

// Validate decodes every graph's instruction stream, checking that it
// consists of well-formed instructions, that fork and branch operands are
// in range, and that queue page sizes are legal.
func (o *Object) Validate() error { return o.Visit(nil) }

// Visit makes Validate's checks in Validate's order and, while the object
// passes them, calls visit (when non-nil) with each instruction as it is
// decoded: graph index, program counter, the instruction and its length
// in words. A loader that builds its own form of the streams in visit
// decodes each word once and reports exactly Validate's errors.
func (o *Object) Visit(visit func(gi, pc int, in Instr, n int)) error {
	if len(o.Graphs) == 0 {
		return fmt.Errorf("isa: object has no graphs")
	}
	if o.Entry < 0 || o.Entry >= len(o.Graphs) {
		return fmt.Errorf("isa: entry graph %d out of range", o.Entry)
	}
	for gi, g := range o.Graphs {
		if g.QueueWords < 1 || g.QueueWords > MaxQueuePage || g.QueueWords&(g.QueueWords-1) != 0 {
			return fmt.Errorf("isa: graph %q queue page %d is not a power of two in [1,%d]", g.Name, g.QueueWords, MaxQueuePage)
		}
		for pc := 0; pc < len(g.Code); {
			in, n, err := Decode(g.Code[pc:])
			if err != nil {
				return fmt.Errorf("isa: graph %q pc %d: %w", g.Name, pc, err)
			}
			if info, _ := Lookup(in.Op); info.Branch {
				// A constant branch offset must stay inside the graph.
				if in.Src2.Mode == SrcSmallImm || in.Src2.Mode == SrcWordImm {
					target := pc + n + int(in.Src2.Imm)
					if target < 0 || target > len(g.Code) {
						return fmt.Errorf("isa: graph %q pc %d: branch target %d out of range", g.Name, pc, target)
					}
				}
			}
			if visit != nil {
				visit(gi, pc, in, n)
			}
			pc += n
		}
	}
	for addr := range o.DataInit {
		if addr < 0 || addr >= o.DataWords {
			return fmt.Errorf("isa: data initializer at %d outside segment of %d words", addr, o.DataWords)
		}
	}
	return nil
}

// TrimCode moves every graph's code into one shared array, each stream a
// slice of exactly its length. An object decoded from JSON carries the
// decoder's growth slack in every stream; a program that stays resident
// in a cache should hold only its words.
func (o *Object) TrimCode() {
	words := 0
	for _, g := range o.Graphs {
		words += len(g.Code)
	}
	all := make([]uint32, words)
	for i := range o.Graphs {
		n := copy(all, o.Graphs[i].Code)
		o.Graphs[i].Code = all[:n:n]
		all = all[n:]
	}
}

// Kernel entry point codes, passed as src1 of a trap instruction
// (Table 6.1). The multiprocessing kernel is modelled natively by the
// simulator; these codes are its service interface.
const (
	// KExit terminates the executing context.
	KExit = 0
	// KRFork creates a context executing the graph named by src2 with two
	// fresh channels; dst1 receives the child's in channel identifier and
	// dst2 its out channel identifier.
	KRFork = 1
	// KIFork creates a context executing the graph named by src2 with one
	// fresh channel; the child inherits the parent's out channel. dst1
	// receives the child's in channel identifier.
	KIFork = 2
	// KChanNew allocates a fresh channel; dst1 receives its identifier.
	KChanNew = 3
	// KNow returns the current time in dst1 (the "now" real-time actor).
	KNow = 4
	// KWait suspends the context until the time in src2 (the "wait"
	// actor); the result written to dst1 is a control token.
	KWait = 5
)
