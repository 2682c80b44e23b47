package ift

import "queuemachine/internal/occam"

// useAndDef links every use of a value to its reaching definition,
// following the UseAndDef/FindDef algorithms of Figure 4.11: within each
// independent component chain E_i of an interface entry H, each child's
// inputs are resolved against the outputs of the preceding children (most
// recent first) and otherwise against H's own input set; the interface's
// outputs are then linked to the last definition in the chain.
func useAndDef(t *Table, h int) {
	H := t.Entries[h]
	for _, chain := range H.E {
		var preceding []int // in chain order; findDef scans from the end
		for _, hj := range chain {
			child := t.Entries[hj]
			for _, vi := range child.I {
				findDef(t, vi.Val, hj, h, preceding, vi.D)
			}
			useAndDef(t, hj)
			preceding = append(preceding, hj)
		}
		for _, vi := range H.O {
			findDef(t, vi.Val, h, h, preceding, vi.D)
		}
	}
}

// findDef scans the preceding entries, most recent (last) first, for the
// definition(s) of x; failing that, it checks whether the value is imported
// through H's input set. The matching definitions' U sets gain the user,
// and the user's D set gains the definitions.
//
// Control tokens follow the multiple-readers/single-writer discipline of
// §4.6 (Figure 4.19): a READER of the token links only to the most recent
// write-flavored definition, skipping read-regenerated tokens (readers run
// unordered with respect to one another); a WRITER links to every
// read-regenerated token back to — and including — the most recent write
// (the ∧-join of outstanding readers). Data values keep the classic
// most-recent-definition rule.
func findDef(t *Table, x Value, user, h int, preceding []int, d map[int]bool) {
	// An interface entry resolving its own output (user == h) represents
	// every contributing definition to the outside world, so it collects
	// like a writer.
	collectAll := x.Token && (user == h || t.Entries[user].WritesValue(x))
	skipReads := x.Token && !collectAll
	for k := len(preceding) - 1; k >= 0; k-- {
		hk := preceding[k]
		vi := t.Entries[hk].hasOutput(x)
		if vi == nil {
			continue
		}
		if skipReads && !vi.WriteToken {
			continue
		}
		vi.U[user] = true
		d[hk] = true
		if !collectAll || vi.WriteToken {
			return
		}
	}
	H := t.Entries[h]
	for _, vi := range H.I {
		if vi.Val == x {
			vi.U[user] = true
			d[h] = true
			return
		}
	}
}

// liveAnalyze tags every output value of every entry under root with
// whether it has a subsequent use (Figure 4.12):
//
//  1. an output whose U set contains a use other than the containing
//     interface entry is live;
//  2. an output used only by the containing interface is live if the
//     interface is a loop and the value is among the loop's inputs
//     (loop-carried); otherwise it inherits the interface's own liveness
//     for that value;
//  3. var formal parameters are always live (they are copied out);
//  4. an output with no uses is dead.
func liveAnalyze(t *Table, root int) {
	// Roots: outputs that escape the program. At a proc root, everything
	// the call protocol returns is live: var formals (rule 3), and every
	// control token — the token a proc sends back vouches that its side
	// effects have completed, so the writes it covers must be awaited
	// even when the proc's own tree has no further use for them. At the
	// main root everything dies with the program.
	R := t.Entries[root]
	for _, vi := range R.O {
		vi.Live = isVarFormal(t, root, vi.Val) ||
			(R.Kind == KProcBody && vi.Val.Token)
	}
	var walk func(h int)
	walk = func(h int) {
		H := t.Entries[h]
		for _, chain := range H.E {
			for _, hj := range chain {
				child := t.Entries[hj]
				for _, vi := range child.O {
					vi.Live = outputLive(t, h, hj, vi)
				}
				walk(hj)
			}
		}
	}
	walk(root)
}

func outputLive(t *Table, h, hj int, vi *ValueInfo) bool {
	H := t.Entries[h]
	if isVarFormal(t, hj, vi.Val) {
		return true
	}
	if len(vi.U) == 0 {
		return false
	}
	for u := range vi.U {
		if u != h {
			return true // a real subsequent use
		}
	}
	// Used only by the containing interface entry.
	if H.Kind.Loop() && H.hasInput(vi.Val) {
		// Loop-carried: the next iteration receives the value with the
		// forwarded loop state, so the definition must surface. For
		// tokens this is what lets a sub-construct's completion reach
		// the iteration graph that forwards the state.
		return true
	}
	if parentOut := H.hasOutput(vi.Val); parentOut != nil {
		return parentOut.Live
	}
	return false
}

// isVarFormal reports whether the value is a var formal parameter of the
// proc whose tree contains entry h — approximated as: the symbol is a var
// parameter at all (parameter symbols are unique per proc, so this is
// exact).
func isVarFormal(t *Table, h int, v Value) bool {
	if v.Sym == nil {
		return false
	}
	if v.Token {
		return v.Sym.Kind == occam.SymParamVec
	}
	return v.Sym.Kind == occam.SymParamVar
}
