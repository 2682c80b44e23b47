// Package occamgen generates random whole OCCAM programs for end-to-end
// differential testing of the compiler→simulator pipeline against the
// reference interpreter. It extends the enumeration idea of
// internal/exprgen (every expression shape) to the full statement
// language: SEQ, PAR, IF, WHILE, replicators, nested procedure
// declarations and, when Config.Channels is set, channel communication
// between parallel branches.
//
// Generated programs are total, deterministic and deadlock-free by
// construction:
//
//   - no division or remainder (the only partial operators), masked vector
//     subscripts, and while loops counted down from small constants;
//   - parallel branches have statically disjoint write sets and never read
//     a scalar or vector a sibling may write (OCCAM's usage rule);
//   - every channel connects exactly two branches of one PAR, and both
//     endpoints perform their operations in one shared script order (the
//     channel-pairing discipline): the i-th communication of the script is
//     a rendezvous both sides reach after locally terminating work, so by
//     induction every operation completes. Replicated-par fan-in uses one
//     channel-vector element per instance, drained in index order by a
//     single collector.
//
// The OCCAM subset has no ALT construct, so generated programs cover the
// remaining process forms; channels appear only outside procedure bodies,
// matching the reference interpreter's supported subset.
package occamgen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Config bounds the shape of generated programs.
type Config struct {
	// Budget is the approximate number of statements the program body may
	// contain (procedure bodies and the funnel epilogue are extra).
	Budget int
	// MaxDepth bounds construct nesting.
	MaxDepth int
	// Channels enables communicating PARs; off, the generator still emits
	// the full channel-free statement language.
	Channels bool
	// Procs is the number of generated procedure declarations (0–3 are
	// useful values; one of them nests a further procedure).
	Procs int
}

// DefaultConfig is the shape used by the differential fuzz campaigns.
func DefaultConfig() Config {
	return Config{Budget: 24, MaxDepth: 4, Channels: true, Procs: 2}
}

// GenerateSeed builds the program a seed denotes — the form every repro
// line and fuzz campaign uses.
func GenerateSeed(seed int64, cfg Config) string {
	return Generate(rand.New(rand.NewSource(seed)), cfg)
}

// Generate builds one random program from the rng's stream. The same
// stream yields the same program.
func Generate(rng *rand.Rand, cfg Config) string {
	if cfg.Budget <= 0 {
		cfg.Budget = 1
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 1
	}
	g := &generator{rng: rng, cfg: cfg, budget: cfg.Budget}
	return g.program()
}

const (
	vaSize, vaMask = 8, 7
	vbSize, vbMask = 4, 3
	outSize        = 8
)

var allScalars = []string{"s0", "s1", "s2", "s3", "s4", "s5"}

// envCtx captures what a statement may write and what its expressions may
// read without racing a parallel sibling.
type envCtx struct {
	write    []string // assignable scalars
	read     []string // readable scalars
	wVA, wVB bool     // may write the vector
	rVA, rVB bool     // may read the vector
	// chanOK permits opening a communicating PAR here (false once inside
	// an if/while arm, where an unbalanced execution count could break
	// the pairing discipline).
	chanOK bool
}

type generator struct {
	rng    *rand.Rand
	cfg    Config
	b      strings.Builder
	budget int
	// free while counters (each loop consumes one for its lifetime).
	counters []string
	// reps in scope (replicator indices readable in expressions).
	reps  []string
	depth int
	// nextChan numbers channel declarations program-wide so textual
	// channel names are unique (the validity tests count ! and ? per
	// name).
	nextChan int
	// procs generated, callable from statements.
	procs []procSig
}

type procSig struct {
	name   string
	nVal   int  // value parameters
	hasVar bool // trailing var parameter
	vec    bool // leading vec parameter (word vector)
}

func (g *generator) line(indent int, format string, args ...any) {
	g.b.WriteString(strings.Repeat("  ", indent))
	fmt.Fprintf(&g.b, format+"\n", args...)
}

func (g *generator) program() string {
	g.counters = []string{"w0", "w1", "w2", "w3"}
	g.line(0, "def mag = 3:")
	g.line(0, "var out[%d], va[%d], vb[%d]:", outSize, vaSize, vbSize)
	g.line(0, "var s0, s1, s2, s3, s4, s5:")
	g.line(0, "var w0, w1, w2, w3:")
	g.emitProcs()
	g.line(0, "seq")
	ctx := envCtx{write: allScalars, read: allScalars,
		wVA: true, wVB: true, rVA: true, rVB: true, chanOK: g.cfg.Channels}
	// Seed assignments so early expressions read nonzero values.
	for i, s := range allScalars[:3] {
		g.line(1, "%s := %d", s, g.rng.Intn(17)-8+i)
	}
	n := 3 + g.rng.Intn(4)
	for i := 0; i < n; i++ {
		g.stmt(1, ctx)
	}
	// Funnel every scalar into out so the differential check sees them.
	for i, s := range allScalars {
		g.line(1, "out[%d] := %s", i, s)
	}
	return g.b.String()
}

// emitProcs declares the program's procedures. The first is always the
// scalar combiner the statement generator calls most; when cfg.Procs
// permits, a vector writer and a nested-declaration wrapper follow.
func (g *generator) emitProcs() {
	if g.cfg.Procs < 1 {
		return
	}
	g.line(0, "proc pf(value x, value y, var z) =")
	g.line(1, "z := ((x * 3) - y) >< (x << 1)")
	g.procs = append(g.procs, procSig{name: "pf", nVal: 2, hasVar: true})
	if g.cfg.Procs < 2 {
		return
	}
	g.line(0, "proc pv(vec d, value x, value e) =")
	g.line(1, "d[x /\\ %d] := e + x", vaMask)
	g.procs = append(g.procs, procSig{name: "pv", vec: true, nVal: 2})
	if g.cfg.Procs < 3 {
		return
	}
	// A nested procedure declaration: pw scopes its own helper and calls
	// it twice, exercising scoped proc symbols and repeated call sites.
	g.line(0, "proc pw(value a, var r) =")
	g.line(1, "proc inner(value t, var u) =")
	g.line(2, "u := (t * t) + %d", g.rng.Intn(9))
	g.line(1, "var h:")
	g.line(1, "seq")
	g.line(2, "inner(a, h)")
	g.line(2, "inner(h /\\ 15, r)")
	g.procs = append(g.procs, procSig{name: "pw", nVal: 1, hasVar: true})
}

// spend consumes budget; when exhausted the statement generator bottoms
// out into simple assignments.
func (g *generator) spend() { g.budget-- }

// stmt emits one random statement under the given read/write permissions.
func (g *generator) stmt(indent int, ctx envCtx) {
	g.depth++
	defer func() { g.depth-- }()
	g.spend()
	choices := []int{0, 0, 1, 2} // weight simple assignments
	if g.depth < g.cfg.MaxDepth && g.budget > 0 {
		choices = append(choices, 3, 4, 5, 6, 7, 8)
		if ctx.chanOK && len(ctx.write) >= 2 {
			// Communicating constructs get double weight: they are the
			// pipeline's rarest code path.
			choices = append(choices, 9, 9, 10)
		}
	}
	switch c := choices[g.rng.Intn(len(choices))]; c {
	case 0: // scalar assignment
		if len(ctx.write) == 0 {
			g.line(indent, "skip")
			return
		}
		g.line(indent, "%s := %s", ctx.write[g.rng.Intn(len(ctx.write))], g.expr(0, ctx))
	case 1: // vector write
		switch {
		case ctx.wVA:
			g.line(indent, "va[(%s) /\\ %d] := %s", g.expr(1, ctx), vaMask, g.expr(0, ctx))
		case ctx.wVB:
			g.line(indent, "vb[(%s) /\\ %d] := %s", g.expr(1, ctx), vbMask, g.expr(0, ctx))
		default:
			g.line(indent, "skip")
		}
	case 2: // proc call
		g.call(indent, ctx)
	case 3: // seq block
		g.line(indent, "seq")
		k := 2 + g.rng.Intn(2)
		for i := 0; i < k; i++ {
			g.stmt(indent+1, ctx)
		}
	case 4: // plain par with disjoint write sets and race-free reads
		if len(ctx.write) < 2 {
			g.stmt(indent, ctx)
			return
		}
		g.line(indent, "par")
		left, right := g.splitPar(ctx)
		g.branch(indent+1, left)
		g.branch(indent+1, right)
	case 5: // if
		g.line(indent, "if")
		inner := ctx
		inner.chanOK = false
		k := 1 + g.rng.Intn(3)
		for i := 0; i < k; i++ {
			g.line(indent+1, "%s", g.expr(0, ctx))
			g.stmt(indent+2, inner)
		}
	case 6: // bounded while
		if len(g.counters) == 0 || len(ctx.write) == 0 {
			g.line(indent, "skip")
			return
		}
		ctr := g.counters[len(g.counters)-1]
		g.counters = g.counters[:len(g.counters)-1]
		inner := ctx
		inner.chanOK = false
		bound := 1 + g.rng.Intn(3)
		g.line(indent, "seq")
		g.line(indent+1, "%s := 0", ctr)
		g.line(indent+1, "while %s < %d", ctr, bound)
		g.line(indent+2, "seq")
		g.stmt(indent+3, inner)
		g.line(indent+3, "%s := %s + 1", ctr, ctr)
	case 7: // replicated seq
		rep := fmt.Sprintf("r%d", len(g.reps))
		inner := ctx
		inner.chanOK = false
		g.line(indent, "seq %s = [%d for %d]", rep, g.rng.Intn(3), 1+g.rng.Intn(3))
		g.reps = append(g.reps, rep)
		g.stmt(indent+1, inner)
		g.reps = g.reps[:len(g.reps)-1]
	case 8: // replicated par writing disjoint elements of one vector
		rep := fmt.Sprintf("r%d", len(g.reps))
		g.reps = append(g.reps, rep)
		body := ctx
		body.write = nil
		body.chanOK = false
		switch {
		case ctx.wVA:
			body.rVA, body.wVA, body.wVB = false, false, false
			g.line(indent, "par %s = [0 for %d]", rep, 1+g.rng.Intn(vaSize))
			g.line(indent+1, "va[%s] := %s", rep, g.expr(0, body))
		case ctx.wVB:
			body.rVB, body.wVA, body.wVB = false, false, false
			g.line(indent, "par %s = [0 for %d]", rep, 1+g.rng.Intn(vbSize))
			g.line(indent+1, "vb[%s] := %s", rep, g.expr(0, body))
		default:
			g.line(indent, "skip")
		}
		g.reps = g.reps[:len(g.reps)-1]
	case 9: // communicating par (scripted rendezvous)
		g.commPar(indent, ctx)
	case 10: // replicated-par fan-in over a channel vector
		g.fanInPar(indent, ctx)
	}
}

// call emits a random procedure call (or a fallback when none applies).
func (g *generator) call(indent int, ctx envCtx) {
	if len(g.procs) == 0 {
		if len(ctx.write) == 0 {
			g.line(indent, "skip")
			return
		}
		g.line(indent, "%s := %s", ctx.write[g.rng.Intn(len(ctx.write))], g.expr(0, ctx))
		return
	}
	sig := g.procs[g.rng.Intn(len(g.procs))]
	if sig.vec {
		if !ctx.wVA {
			g.line(indent, "skip")
			return
		}
		// pv writes va: its value arguments must not read va (another
		// instance of this statement's surrounding context may race).
		g.line(indent, "%s(va, %s, %s)", sig.name, g.exprNoVA(1, ctx), g.exprNoVA(1, ctx))
		return
	}
	if len(ctx.write) == 0 {
		g.line(indent, "skip")
		return
	}
	args := make([]string, 0, sig.nVal+1)
	for i := 0; i < sig.nVal; i++ {
		args = append(args, g.expr(1, ctx))
	}
	if sig.hasVar {
		args = append(args, ctx.write[g.rng.Intn(len(ctx.write))])
	}
	g.line(indent, "%s(%s)", sig.name, strings.Join(args, ", "))
}

// splitPar divides the writable environment into two race-free branch
// contexts (the same partition discipline as the interpreter's generator).
func (g *generator) splitPar(ctx envCtx) (left, right envCtx) {
	cut := 1 + g.rng.Intn(len(ctx.write)-1)
	l, r := ctx.write[:cut], ctx.write[cut:]
	inert := diff(ctx.read, ctx.write)
	left = envCtx{
		write: l, read: union(l, inert),
		wVA: ctx.wVA, rVA: ctx.wVA || (ctx.rVA && !ctx.wVA),
		rVB:    ctx.rVB && !ctx.wVB,
		chanOK: ctx.chanOK,
	}
	right = envCtx{
		write: r, read: union(r, inert),
		wVB: ctx.wVB, rVB: ctx.wVB || (ctx.rVB && !ctx.wVB),
		rVA:    ctx.rVA && !ctx.wVA,
		chanOK: ctx.chanOK,
	}
	return left, right
}

// branch emits one parallel component.
func (g *generator) branch(indent int, ctx envCtx) {
	g.line(indent, "seq")
	k := 1 + g.rng.Intn(2)
	for i := 0; i < k; i++ {
		g.stmt(indent+1, ctx)
	}
}

// commPar emits a two-branch PAR whose branches communicate over freshly
// declared channels following one shared script: both endpoints perform
// the script's operations in the same order, so every operation is a
// rendezvous both sides reach — deadlock-free by induction.
func (g *generator) commPar(indent int, ctx envCtx) {
	left, right := g.splitPar(ctx)
	// Communicating branches must not open further communicating PARs of
	// their own script channels inside conditional arms; nested commPars
	// at branch top level are fine and use fresh channels.
	nc := 1 + g.rng.Intn(2)
	names := make([]string, nc)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", g.nextChan)
		g.nextChan++
	}
	g.line(indent, "chan %s:", strings.Join(names, ", "))
	g.line(indent, "par")

	// The script: 1–4 tokens of (channel, direction). Direction true
	// means left sends, right receives.
	type token struct {
		ch  string
		l2r bool
	}
	script := make([]token, 1+g.rng.Intn(4))
	for i := range script {
		script[i] = token{ch: names[g.rng.Intn(nc)], l2r: g.rng.Intn(2) == 0}
	}

	emit := func(ctx envCtx, sendSide bool) {
		g.line(indent+1, "seq")
		for _, tk := range script {
			// Local work between communications.
			if g.rng.Intn(2) == 0 && g.budget > 0 {
				inner := ctx
				inner.chanOK = false
				g.stmt(indent+2, inner)
			}
			if tk.l2r == sendSide {
				g.line(indent+2, "%s ! %s", tk.ch, g.expr(1, ctx))
			} else {
				// splitPar gives each side at least one scalar, so a
				// receive target always exists.
				g.line(indent+2, "%s ? %s", tk.ch, ctx.write[g.rng.Intn(len(ctx.write))])
			}
		}
		if g.rng.Intn(2) == 0 && g.budget > 0 {
			inner := ctx
			inner.chanOK = false
			g.stmt(indent+2, inner)
		}
	}
	emit(left, true)
	emit(right, false)
}

// fanInPar emits the replicated-par fan-in pattern: n instances each send
// one value on their own element of a fresh channel vector, and a single
// collector drains the elements in index order into one of its vectors.
func (g *generator) fanInPar(indent int, ctx envCtx) {
	if len(g.counters) == 0 {
		g.stmt(indent, ctx)
		return
	}
	var vec string
	var mask int
	body := ctx
	body.write = nil
	body.chanOK = false
	switch {
	case ctx.wVA:
		vec, mask = "va", vaMask
		body.rVA, body.wVA, body.wVB = false, false, false
	case ctx.wVB:
		vec, mask = "vb", vbMask
		body.rVB, body.wVA, body.wVB = false, false, false
	default:
		g.stmt(indent, ctx)
		return
	}
	n := 2 + g.rng.Intn(3)
	cv := fmt.Sprintf("c%d", g.nextChan)
	g.nextChan++
	rep := fmt.Sprintf("r%d", len(g.reps))
	ctr := g.counters[len(g.counters)-1]
	g.counters = g.counters[:len(g.counters)-1]
	g.line(indent, "chan %s[%d]:", cv, n)
	g.line(indent, "par")
	// Senders: instance i sends a function of i (reads only inert state).
	g.reps = append(g.reps, rep)
	g.line(indent+1, "par %s = [0 for %d]", rep, n)
	g.line(indent+2, "%s[%s] ! %s", cv, rep, g.expr(1, body))
	g.reps = g.reps[:len(g.reps)-1]
	// Collector: drains in index order into the vector it owns.
	g.line(indent+1, "seq")
	g.line(indent+2, "%s := 0", ctr)
	g.line(indent+2, "while %s < %d", ctr, n)
	g.line(indent+3, "seq")
	g.line(indent+4, "%s[%s] ? %s[%s /\\ %d]", cv, ctr, vec, ctr, mask)
	g.line(indent+4, "%s := %s + 1", ctr, ctr)
	// The counter stays consumed: a statement emitted after this construct
	// may run in parallel with the collector (inside an enclosing PAR), so
	// handing the counter back could let a later while loop race on it.
}

// exprNoVA builds an expression that does not read va.
func (g *generator) exprNoVA(depth int, ctx envCtx) string {
	c := ctx
	c.rVA = false
	return g.expr(depth, c)
}

// expr emits a random total expression under the read permissions. No
// division or remainder appears: they are the only partial operators, and
// totality is what guarantees generated programs cannot fault.
func (g *generator) expr(depth int, ctx envCtx) string {
	if depth > 2 || g.rng.Intn(3) == 0 {
		for tries := 0; tries < 4; tries++ {
			switch g.rng.Intn(4) {
			case 0:
				return fmt.Sprintf("%d", g.rng.Intn(41)-20)
			case 1:
				if len(ctx.read) > 0 {
					return ctx.read[g.rng.Intn(len(ctx.read))]
				}
			case 2:
				if len(g.reps) > 0 {
					return g.reps[g.rng.Intn(len(g.reps))]
				}
				return "mag"
			default:
				if ctx.rVA && g.rng.Intn(2) == 0 {
					return fmt.Sprintf("va[(%s) /\\ %d]", g.expr(depth+2, ctx), vaMask)
				}
				if ctx.rVB {
					return fmt.Sprintf("vb[(%s) /\\ %d]", g.expr(depth+2, ctx), vbMask)
				}
			}
		}
		return fmt.Sprintf("%d", g.rng.Intn(21)-10)
	}
	ops := []string{"+", "-", "*", "/\\", "\\/", "><", "<<", ">>", "=", "<>", "<", ">", "<=", ">=", "and", "or"}
	op := ops[g.rng.Intn(len(ops))]
	if g.rng.Intn(8) == 0 {
		return fmt.Sprintf("(- %s)", g.expr(depth+1, ctx))
	}
	return fmt.Sprintf("(%s %s %s)", g.expr(depth+1, ctx), op, g.expr(depth+1, ctx))
}

func union(a, b []string) []string {
	out := append([]string{}, a...)
	seen := map[string]bool{}
	for _, s := range a {
		seen[s] = true
	}
	for _, s := range b {
		if !seen[s] {
			out = append(out, s)
		}
	}
	return out
}

func diff(a, b []string) []string {
	drop := map[string]bool{}
	for _, s := range b {
		drop[s] = true
	}
	var out []string
	for _, s := range a {
		if !drop[s] {
			out = append(out, s)
		}
	}
	return out
}
