package occamgen

import (
	"strings"
	"testing"
)

// FuzzCompileRun is the native-fuzzing face of the differential oracle:
// any source text the front end and the reference interpreter both accept
// must compile, simulate, and produce interpreter-identical vectors under
// every configuration. Inputs the pipeline rejects are skipped — the
// properties under test are "no panic anywhere" and "no silent divergence".
func FuzzCompileRun(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 7, 13, 44} {
		f.Add(GenerateSeed(seed, DefaultConfig()))
	}
	for _, seed := range []int64{0, 1, 2, 5} {
		f.Add(GenerateSeed(seed, scalarConfig))
	}
	f.Add("var out[8], va[8], vb[4]:\nout[0] := 1\n")
	f.Add(`var out[8], va[8], vb[4], s0, s1:
chan c0:
seq
  s0 := 5
  par
    c0 ! s0 * 3
    c0 ? s1
  out[0] := s1
`)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<15 {
			t.Skip("oversized input")
		}
		fail := CheckProgram(src)
		if fail == nil {
			return
		}
		switch {
		case fail.Stage == "parse", fail.Stage == "interp":
			// The input never entered the differential region: the front
			// end rejected it, or it is outside the reference
			// interpreter's subset (runtime faults included).
			return
		case strings.Contains(fail.Detail, "operand queue"),
			strings.Contains(fail.Detail, "data segment"):
			// Architecture capacity limits the interpreter does not model.
			return
		}
		t.Fatalf("divergence on fuzzed input:\n%v", fail)
	})
}
