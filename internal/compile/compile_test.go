package compile

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"queuemachine/internal/sim"
)

// compileRun compiles a source program and executes it on numPEs simulated
// processing elements.
func compileRun(t *testing.T, src string, numPEs int, opts Options) (*sim.Result, *Artifact) {
	t.Helper()
	art, err := Compile(src, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	res, err := sim.Run(art.Object, numPEs, sim.DefaultParams())
	if err != nil {
		t.Fatalf("Run: %v\nassembly:\n%s", err, art.Assembly())
	}
	return res, art
}

// vecWord reads word i of the named vector from the final memory.
func vecWord(t *testing.T, res *sim.Result, art *Artifact, name string, i int) int32 {
	t.Helper()
	base, err := art.VectorBase(name)
	if err != nil {
		t.Fatal(err)
	}
	idx := int(base)/4 + i
	if idx >= len(res.Data) {
		t.Fatalf("vector %s[%d] outside data segment", name, i)
	}
	return res.Data[idx]
}

// allOpts exercises every compiler configuration of Table 6.6.
var allOpts = map[string]Options{
	"default":        {},
	"no-input-order": {NoInputOrder: true},
	"no-live-filter": {NoLiveFilter: true},
	"no-priority":    {NoPriority: true},
	"no-const-fold":  {NoConstFold: true},
	"all-off":        {NoInputOrder: true, NoLiveFilter: true, NoPriority: true, NoConstFold: true},
}

func TestStraightLine(t *testing.T) {
	src := `var v[2], x:
seq
  x := 2 + 3 * 4
  v[0] := x
  v[1] := x - 20
`
	for name, opts := range allOpts {
		res, art := compileRun(t, src, 1, opts)
		if got := vecWord(t, res, art, "v", 0); got != 14 {
			t.Errorf("%s: v[0] = %d, want 14", name, got)
		}
		if got := vecWord(t, res, art, "v", 1); got != -6 {
			t.Errorf("%s: v[1] = %d, want -6", name, got)
		}
	}
}

func TestVectorReadWrite(t *testing.T) {
	src := `var v[4], i:
seq
  v[0] := 5
  v[1] := v[0] + 1
  i := 2
  v[i] := v[1] * v[0]
  v[3] := v[i] - 1
`
	res, art := compileRun(t, src, 1, Options{})
	want := []int32{5, 6, 30, 29}
	for i, w := range want {
		if got := vecWord(t, res, art, "v", i); got != w {
			t.Errorf("v[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestWhileLoop(t *testing.T) {
	src := `var v[1], sum, k:
seq
  sum := 0
  k := 1
  while k <= 10
    seq
      sum := sum + k
      k := k + 1
  v[0] := sum
`
	for name, opts := range allOpts {
		res, art := compileRun(t, src, 2, opts)
		if got := vecWord(t, res, art, "v", 0); got != 55 {
			t.Errorf("%s: sum = %d, want 55", name, got)
		}
	}
}

func TestWhileFalseOnEntry(t *testing.T) {
	src := `var v[1], k:
seq
  v[0] := 7
  k := 10
  while k < 10
    seq
      v[0] := 0
      k := k + 1
`
	res, art := compileRun(t, src, 1, Options{})
	if got := vecWord(t, res, art, "v", 0); got != 7 {
		t.Errorf("v[0] = %d, want 7 (loop body must not run)", got)
	}
}

func TestIfBranches(t *testing.T) {
	src := `var v[3], x:
seq
  x := 5
  if
    x < 3
      v[0] := 1
    x < 10
      v[0] := 2
    x >= 10
      v[0] := 3
  if
    x = 99
      v[1] := 1
  v[2] := v[0] + 10
`
	for name, opts := range allOpts {
		res, art := compileRun(t, src, 2, opts)
		if got := vecWord(t, res, art, "v", 0); got != 2 {
			t.Errorf("%s: v[0] = %d, want 2", name, got)
		}
		if got := vecWord(t, res, art, "v", 1); got != 0 {
			t.Errorf("%s: v[1] = %d, want 0 (no guard true => skip)", name, got)
		}
		if got := vecWord(t, res, art, "v", 2); got != 12 {
			t.Errorf("%s: v[2] = %d, want 12", name, got)
		}
	}
}

func TestIfValueFlow(t *testing.T) {
	// Values assigned in branches must flow back to the parent context.
	src := `var v[1], x, y:
seq
  x := 4
  if
    x > 0
      y := x * 10
    x <= 0
      y := 0 - x
  v[0] := y + 2
`
	res, art := compileRun(t, src, 2, Options{})
	if got := vecWord(t, res, art, "v", 0); got != 42 {
		t.Errorf("v[0] = %d, want 42", got)
	}
}

func TestProcValueAndVarParams(t *testing.T) {
	src := `var v[1], a, b:
proc addmul(value x, value y, var out) =
  out := (x + y) * 2
seq
  a := 3
  addmul(a, 4, b)
  v[0] := b
`
	for name, opts := range allOpts {
		res, art := compileRun(t, src, 2, opts)
		if got := vecWord(t, res, art, "v", 0); got != 14 {
			t.Errorf("%s: v[0] = %d, want 14", name, got)
		}
	}
}

func TestProcVecParam(t *testing.T) {
	src := `var v[4], w[4]:
proc fill(vec d, value base) =
  var k:
  seq
    k := 0
    while k < 4
      seq
        d[k] := base + k
        k := k + 1
seq
  fill(v, 10)
  fill(w, 20)
  v[0] := v[0] + w[3]
`
	res, art := compileRun(t, src, 2, Options{})
	if got := vecWord(t, res, art, "v", 0); got != 10+23 {
		t.Errorf("v[0] = %d, want 33", got)
	}
	if got := vecWord(t, res, art, "w", 2); got != 22 {
		t.Errorf("w[2] = %d, want 22", got)
	}
}

func TestRecursion(t *testing.T) {
	// Factorial via the Figure 4.5 function-call mechanism.
	src := `var v[1], r:
proc fact(value n, var out) =
  var sub:
  if
    n <= 1
      out := 1
    n > 1
      seq
        fact(n - 1, sub)
        out := n * sub
seq
  fact(6, r)
  v[0] := r
`
	res, art := compileRun(t, src, 4, Options{})
	if got := vecWord(t, res, art, "v", 0); got != 720 {
		t.Errorf("6! = %d, want 720", got)
	}
	if res.Kernel.ContextsCreated < 6 {
		t.Errorf("contexts = %d; recursion should create one per level", res.Kernel.ContextsCreated)
	}
}

func TestPlainParMerged(t *testing.T) {
	// Pure-computation branches merge into one graph (Figure 4.9).
	src := `var v[2], a, b:
seq
  par
    a := 2 + 3
    b := 4 * 5
  v[0] := a
  v[1] := b
`
	res, art := compileRun(t, src, 2, Options{})
	if vecWord(t, res, art, "v", 0) != 5 || vecWord(t, res, art, "v", 1) != 20 {
		t.Errorf("par results wrong: %d %d", vecWord(t, res, art, "v", 0), vecWord(t, res, art, "v", 1))
	}
}

func TestPlainParChannels(t *testing.T) {
	// Communicating branches splice into separate contexts and rendezvous
	// over the declared channel.
	src := `var v[1], x:
chan c:
seq
  par
    c ! 6 * 7
    c ? x
  v[0] := x
`
	for _, pes := range []int{1, 2, 4} {
		res, art := compileRun(t, src, pes, Options{})
		if got := vecWord(t, res, art, "v", 0); got != 42 {
			t.Errorf("%d PEs: v[0] = %d, want 42", pes, got)
		}
	}
}

func TestReplicatedSeq(t *testing.T) {
	// The Figure 4.6 iteration example.
	src := `var v[1], sum:
seq
  sum := 0
  seq k = [1 for 10]
    sum := sum + k
  v[0] := sum
`
	res, art := compileRun(t, src, 2, Options{})
	if got := vecWord(t, res, art, "v", 0); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestReplicatedPar(t *testing.T) {
	// The Figure 4.10 dynamic process creation example.
	src := `def n = 10:
var v[n]:
seq
  par i = [0 for n]
    var square:
    seq
      square := i * i
      v[i] := square
  v[0] := v[9] + v[1]
`
	for _, pes := range []int{1, 2, 4, 8} {
		res, art := compileRun(t, src, pes, Options{})
		if got := vecWord(t, res, art, "v", 0); got != 82 {
			t.Errorf("%d PEs: v[0] = %d, want 82", pes, got)
		}
		for i := 1; i < 10; i++ {
			if got := vecWord(t, res, art, "v", i); got != int32(i*i) {
				t.Errorf("%d PEs: v[%d] = %d, want %d", pes, i, got, i*i)
			}
		}
	}
}

func TestReplicatedParZeroAndOne(t *testing.T) {
	src := `var v[4], n:
seq
  n := 0
  par i = [0 for n]
    v[i] := 9
  n := 1
  par i = [2 for n]
    v[i] := 9
  v[3] := 1
`
	res, art := compileRun(t, src, 2, Options{})
	if vecWord(t, res, art, "v", 0) != 0 || vecWord(t, res, art, "v", 1) != 0 {
		t.Error("zero-count par ran its body")
	}
	if got := vecWord(t, res, art, "v", 2); got != 9 {
		t.Errorf("v[2] = %d, want 9", got)
	}
}

func TestNestedLoops(t *testing.T) {
	src := `var v[1], i, j, acc:
seq
  acc := 0
  i := 0
  while i < 4
    seq
      j := 0
      while j < 3
        seq
          acc := acc + (i * j)
          j := j + 1
      i := i + 1
  v[0] := acc
`
	res, art := compileRun(t, src, 2, Options{})
	want := int32(0)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			want += int32(i * j)
		}
	}
	if got := vecWord(t, res, art, "v", 0); got != want {
		t.Errorf("acc = %d, want %d", got, want)
	}
}

func TestChannelThroughProc(t *testing.T) {
	src := `var v[1], x:
chan c:
proc produce(chan out, value n) =
  out ! n * 2
seq
  par
    produce(c, 21)
    c ? x
  v[0] := x
`
	res, art := compileRun(t, src, 2, Options{})
	if got := vecWord(t, res, art, "v", 0); got != 42 {
		t.Errorf("v[0] = %d, want 42", got)
	}
}

func TestDeterministicCompile(t *testing.T) {
	src := `var v[1], sum:
seq
  sum := 0
  seq k = [1 for 5]
    sum := sum + k
  v[0] := sum
`
	a1, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a1.Assembly() != a2.Assembly() {
		t.Error("compilation is not deterministic")
	}
}

func TestAssemblyDump(t *testing.T) {
	_, art := compileRun(t, `var v[1]:
v[0] := 42
`, 1, Options{})
	if !strings.Contains(art.Assembly(), ".graph main") {
		t.Errorf("assembly:\n%s", art.Assembly())
	}
	if !strings.Contains(art.Assembly(), "store") {
		t.Error("no store emitted")
	}
}

func TestVectorBaseErrors(t *testing.T) {
	_, art := compileRun(t, `var v[1]:
v[0] := 1
`, 1, Options{})
	if _, err := art.VectorBase("nothere"); err == nil {
		t.Error("missing vector resolved")
	}
}

// TestByteVectors compiles the Figure 4.19 example — byte-vector accesses
// sequenced under the multiple-readers/single-writer discipline — and
// checks fchb/storb semantics end to end, including byte truncation.
func TestByteVectors(t *testing.T) {
	src := `var c[byte 3], out[4], w, x, y, z:
seq
  c[byte 0] := 65
  c[byte 1] := 66
  c[byte 2] := 67
  w := 300
  seq
    x := c[byte 0]
    y := c[byte 1]
    z := c[byte 2]
    c[byte 0] := w
  out[0] := x
  out[1] := y
  out[2] := z
  out[3] := c[byte 0]
`
	for name, opts := range allOpts {
		res, art := compileRun(t, src, 2, opts)
		want := []int32{65, 66, 67, 300 & 0xff}
		for i, w := range want {
			if got := vecWord(t, res, art, "out", i); got != w {
				t.Errorf("%s: out[%d] = %d, want %d", name, i, got, w)
			}
		}
	}
}

// TestByteVectorPacking checks the in-memory layout: three bytes pack into
// one word, little-endian.
func TestByteVectorPacking(t *testing.T) {
	src := `var c[byte 4]:
seq
  c[byte 0] := 1
  c[byte 1] := 2
  c[byte 2] := 3
  c[byte 3] := 4
`
	res, art := compileRun(t, src, 1, Options{})
	base, err := art.VectorBase("c")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Data[base/4]; got != 0x04030201 {
		t.Errorf("packed word = %#x, want 0x04030201", got)
	}
}

// TestByteVectorErrors checks the byte-subscript agreement rules.
func TestByteVectorErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"var c[byte 3]:\nc[0] := 1\n", "needs a [byte"},
		{"var v[3]:\nv[byte 0] := 1\n", "not a byte vector"},
		{"chan c[byte 3]:\nskip\n", "var vectors only"},
		{"var x[byte 0]:\nskip\n", "non-positive"},
	}
	for _, c := range cases {
		if _, err := Compile(c.src, Options{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %v, want %q", c.src, err, c.want)
		}
	}
}

// TestLongStraightLineAllocation compiles one long graph: a seq of
// dependent vector assignments, 38 KB of source for 2,000 statements and
// well inside a /run body. Map-keyed predecessor sets made this quadratic
// with a large constant (1.1 GB allocated at 2,000), and prepending each
// statement to the use-def resolver's list of preceding definitions made
// it quadratic again (102 MB at 4,000); the dense analyses and an
// append-order list need a few tens of MB.
func TestLongStraightLineAllocation(t *testing.T) {
	for _, c := range []struct{ stmts, maxMB int }{{2000, 128}, {4000, 64}} {
		var b strings.Builder
		b.WriteString("var v[2]:\nseq\n")
		for i := 0; i < c.stmts; i++ {
			fmt.Fprintf(&b, "  v[%d] := v[%d] + %d\n", i%2, (i+1)%2, i%7)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Compile(b.String(), Options{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= float64(c.maxMB) {
			t.Errorf("%d statements: compiling allocated %.0f MB, want under %d", c.stmts, mb, c.maxMB)
		}
	}
}
