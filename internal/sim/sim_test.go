package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"queuemachine/internal/asm"
	"queuemachine/internal/isa"
)

func assemble(t *testing.T, src string) *isa.Object {
	t.Helper()
	obj, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return obj
}

func run(t *testing.T, src string, numPEs int) *Result {
	t.Helper()
	res, err := Run(assemble(t, src), numPEs, DefaultParams())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

const singleContext = `
.data 6
.init 0 7
.init 1 3
.init 2 20
.init 3 6
.init 4 2
.graph main queue=32
	fetch #8 :r0
	fetch #12 :r1
	fetch #0 :r2
	fetch #4 :r3
	minus++ r0,r1 :r2
	fetch #16 :r3
	mul++ r0,r1 :r2
	div++ r0,r1 :r1
	plus++ r0,r1 :r0
	store #20,r0
	trap #0,#0
`

func TestSingleContextProgram(t *testing.T) {
	res := run(t, singleContext, 1)
	if got := res.Data[5]; got != 7*3+(20-6)/2 {
		t.Errorf("result = %d", got)
	}
	if res.Cycles <= 0 || res.Instructions != 11 {
		t.Errorf("cycles=%d instructions=%d", res.Cycles, res.Instructions)
	}
	if res.Kernel.ContextsCreated != 1 || res.Kernel.ContextsFinished != 1 {
		t.Errorf("kernel stats = %+v", res.Kernel)
	}
}

const producerConsumer = `
.data 1
.entry main
.graph main queue=32
	trap #1,@worker :r17,r18
	send r17,#21
	recv r18 :r0
	store+1 #0,r0
	trap #0,#0
.graph worker queue=32
	recv cin :r0
	plus+1 r0,r0 :r0
	send+1 cout,r0
	trap #0,#0
`

func TestProducerConsumer(t *testing.T) {
	for _, pes := range []int{1, 2, 4} {
		res := run(t, producerConsumer, pes)
		if got := res.Data[0]; got != 42 {
			t.Errorf("%d PEs: result = %d, want 42", pes, got)
		}
		if res.Kernel.ContextsCreated != 2 || res.Kernel.RForks != 1 {
			t.Errorf("%d PEs: kernel = %+v", pes, res.Kernel)
		}
		if res.Cache.Rendezvous != 2 {
			t.Errorf("%d PEs: rendezvous = %d", pes, res.Cache.Rendezvous)
		}
	}
}

// fanOut builds a program where the main context forks `workers` contexts,
// each summing 1..n, and accumulates their results.
func fanOut(workers, n int) string {
	var b strings.Builder
	b.WriteString(".data 1\n.entry main\n.graph main queue=64\n")
	// Fork phase first (highest priority per the §4.7 heuristic).
	for w := 0; w < workers; w++ {
		fmt.Fprintf(&b, "\ttrap #1,@worker :r%d,r%d\n", 17+w*2, 18+w*2)
	}
	for w := 0; w < workers; w++ {
		fmt.Fprintf(&b, "\tsend r%d,#%d\n", 17+w*2, n)
	}
	b.WriteString("\tplus #0,#0 :r25\n")
	for w := 0; w < workers; w++ {
		fmt.Fprintf(&b, "\trecv r%d :r0\n", 18+w*2)
		b.WriteString("\tplus+1 r25,r0 :r25\n")
	}
	b.WriteString("\tstore #0,r25\n\ttrap #0,#0\n")
	b.WriteString(`.graph worker queue=32
	recv cin :r17
	plus #0,#0 :r19
lp:
	plus r19,r17 :r19
	minus r17,#1 :r17
	gt r17,#0 :r0
	bne+1 r0,@lp
	send cout,r19
	trap #0,#0
`)
	return b.String()
}

func TestFanOutCorrectAcrossPEs(t *testing.T) {
	const workers, n = 4, 50
	want := int32(workers * n * (n + 1) / 2)
	var base int64
	for _, pes := range []int{1, 2, 4, 8, 256} {
		res := run(t, fanOut(workers, n), pes)
		if got := res.Data[0]; got != want {
			t.Errorf("%d PEs: result = %d, want %d", pes, got, want)
		}
		if pes == 1 {
			base = res.Cycles
		}
	}
	if base == 0 {
		t.Fatal("no baseline")
	}
}

// TestParallelSpeedup checks that compute-heavy fan-out actually runs
// faster on more processing elements.
func TestParallelSpeedup(t *testing.T) {
	src := fanOut(4, 400)
	res1 := run(t, src, 1)
	res4 := run(t, src, 4)
	if res4.Cycles >= res1.Cycles {
		t.Errorf("no speedup: 1 PE %d cycles, 4 PEs %d cycles", res1.Cycles, res4.Cycles)
	}
	speedup := float64(res1.Cycles) / float64(res4.Cycles)
	if speedup < 2.0 {
		t.Errorf("speedup %.2f too low for 4 independent workers", speedup)
	}
}

func TestDeterminism(t *testing.T) {
	src := fanOut(4, 100)
	r1 := run(t, src, 4)
	r2 := run(t, src, 4)
	if r1.Cycles != r2.Cycles || r1.Instructions != r2.Instructions {
		t.Errorf("runs diverge: %d/%d vs %d/%d cycles/instructions",
			r1.Cycles, r1.Instructions, r2.Cycles, r2.Instructions)
	}
	for i := range r1.Data {
		if r1.Data[i] != r2.Data[i] {
			t.Fatalf("data diverges at %d", i)
		}
	}
}

const deadlocked = `
.graph main queue=32
	trap #3,#0 :r17
	recv r17 :r0
	trap #0,#0
`

func TestDeadlockDetected(t *testing.T) {
	_, err := Run(assemble(t, deadlocked), 2, DefaultParams())
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("want deadlock error, got %v", err)
	}
	if err != nil && !strings.Contains(err.Error(), "blocked-recv") {
		t.Errorf("deadlock report lacks context state: %v", err)
	}
}

const waitProgram = `
.data 1
.graph main queue=32
	trap #4,#0 :r17      ; now
	plus r17,#50 :r17
	trap #5,r17 :r0      ; wait until now+50
	trap #4,#0 :r18      ; now again
	store+1 #0,r18
	trap #0,#0
`

func TestWaitAndNow(t *testing.T) {
	res := run(t, waitProgram, 1)
	if res.Data[0] < 50 {
		t.Errorf("time after wait = %d, want >= 50", res.Data[0])
	}
}

func TestIFork(t *testing.T) {
	// main rforks a relay; the relay iforks a child that inherits the
	// relay's out channel and answers main directly.
	src := `
.data 1
.entry main
.graph main queue=32
	trap #1,@relay :r17,r18
	send r17,#5
	recv r18 :r0
	store+1 #0,r0
	trap #0,#0
.graph relay queue=32
	recv cin :r17
	trap #2,@leaf :r19
	send r19,r17
	trap #0,#0
.graph leaf queue=32
	recv cin :r0
	mul+1 r0,#3 :r0
	send+1 cout,r0
	trap #0,#0
`
	res := run(t, src, 2)
	if got := res.Data[0]; got != 15 {
		t.Errorf("result = %d, want 15", got)
	}
	if res.Kernel.IForks != 1 || res.Kernel.RForks != 1 {
		t.Errorf("forks = %+v", res.Kernel)
	}
}

// runErrorCases are programs and machine sizes the simulator must
// refuse with an error.
var runErrorCases = []struct {
	name   string
	src    string
	pes    int
	config bool   // the error must be a ConfigError on "pes"
	msg    string // when set, the error must contain it
}{
	{name: "zero-pes", src: singleContext, pes: 0},
	{name: "machine-size-cap", src: singleContext, pes: MaxPEs + 1, config: true},
	// Unknown kernel entry point.
	{name: "unknown-trap", pes: 1, src: `
.graph main queue=32
	trap #9,#0
	trap #0,#0
`},
	// Fork of an out-of-range graph.
	{name: "wild-fork", pes: 1, src: `
.graph main queue=32
	trap #1,#7 :r17,r18
	trap #0,#0
`},
	// Invalid channel.
	{name: "channel-0", pes: 1, src: `
.graph main queue=32
	send #0,#1
	trap #0,#0
`},
	// A channel the kernel never allocated: the message caches
	// index their tables by allocated channel ids.
	{name: "unallocated-channel", pes: 2, msg: "invalid channel 99", src: `
.graph main queue=32
	send #99,#1
	trap #0,#0
`},
	// A store past the end of the static data segment.
	{name: "store-past-data", pes: 1, msg: "beyond data segment of", src: `
.data 1
.graph main queue=32
	store #8,#1
	trap #0,#0
`},
}

// TestRunErrors: malformed programs and machine sizes are rejected, an
// oversized machine with a ConfigError naming the pes field.
func TestRunErrors(t *testing.T) {
	for _, tc := range runErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(assemble(t, tc.src), tc.pes, DefaultParams())
			if err == nil {
				t.Fatal("accepted")
			}
			var ce *ConfigError
			if tc.config && (!errors.As(err, &ce) || ce.Field != "pes") {
				t.Fatalf("want ConfigError on pes, got %v", err)
			}
			if !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("error %q does not mention %q", err, tc.msg)
			}
		})
	}
}

func TestWatchdog(t *testing.T) {
	loop := `
.graph main queue=32
lp:
	bne+0 #1,@lp
	trap #0,#0
`
	p := DefaultParams()
	p.MaxInstructions = 1000
	if _, err := Run(assemble(t, loop), 1, p); err == nil || !strings.Contains(err.Error(), "instructions") {
		t.Errorf("watchdog: %v", err)
	}
	p = DefaultParams()
	p.MaxCycles = 500
	if _, err := Run(assemble(t, loop), 1, p); err == nil || !strings.Contains(err.Error(), "cycles") {
		t.Errorf("cycle watchdog: %v", err)
	}
}

func TestUtilization(t *testing.T) {
	res := run(t, fanOut(4, 200), 2)
	u := res.Utilization()
	if u <= 0 || u > 1 {
		t.Errorf("utilization = %f", u)
	}
	if (&Result{}).Utilization() != 0 {
		t.Error("empty utilization")
	}
}

// TestSwitchAccounting checks that a single-context run never pays a
// roll-out switch and that multi-context single-PE runs do.
func TestSwitchAccounting(t *testing.T) {
	res := run(t, singleContext, 1)
	if res.Switches != 1 { // initial dispatch only
		t.Errorf("switches = %d, want 1", res.Switches)
	}
	res = run(t, fanOut(4, 50), 1)
	if res.Switches < 5 {
		t.Errorf("switches = %d, want several (5 contexts on one PE)", res.Switches)
	}
}

const byteProgram = `
.data 2
.graph main queue=32
	storb #1,#171
	fchb #1 :r0
	store+1 #4,r0
	trap #0,#0
`

func TestByteMemoryOps(t *testing.T) {
	res := run(t, byteProgram, 1)
	if res.Data[1] != 171 {
		t.Errorf("fetched byte = %d", res.Data[1])
	}
	if res.Data[0] != 171<<8 {
		t.Errorf("packed word = %#x", res.Data[0])
	}
	if res.MemReads == 0 || res.MemWrites == 0 {
		t.Error("memory traffic not counted")
	}
}

func TestAvgQueueLength(t *testing.T) {
	res := run(t, singleContext, 1)
	if got := res.AvgQueueLength(); got <= 0 || got > 32 {
		t.Errorf("avg queue length = %f", got)
	}
	if (&Result{}).AvgQueueLength() != 0 {
		t.Error("empty result queue length")
	}
}

func TestMemoryFaults(t *testing.T) {
	cases := []string{
		".graph main queue=32\n\tstorb #999,#1\n\ttrap #0,#0\n",
		".graph main queue=32\n\tfchb #-1 :r0\n\ttrap #0,#0\n",
		".graph main queue=32\n\tfetch #2 :r0\n\ttrap #0,#0\n", // unaligned
	}
	for i, src := range cases {
		if _, err := Run(assemble(t, src), 1, DefaultParams()); err == nil {
			t.Errorf("case %d: fault not detected", i)
		}
	}
}

// TestNegativeQPWriteFails: writing -1 to qp and then reading a window
// register used to crash Run with an index panic; it is a structured pe
// error naming the context and the value.
func TestNegativeQPWriteFails(t *testing.T) {
	_, err := Run(assemble(t, `
.graph main queue=32
	plus #-1,#0 :qp
	plus r0,#0 :r1
	trap #0,#0
`), 1, DefaultParams())
	if err == nil || !strings.Contains(err.Error(), "pe: context 0") || !strings.Contains(err.Error(), "-1") {
		t.Fatalf("Run = %v, want a pe error for the negative queue pointer", err)
	}
}
