package occamgen

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"queuemachine/internal/interp"
	"queuemachine/internal/occam"
)

// TestValidityInvariants checks the by-construction guarantees over a wide
// seed range: every generated program parses, is channel-balanced (each
// channel name sends exactly as often as it receives), stays within a
// bounded size, and executes cleanly under the reference interpreter.
func TestValidityInvariants(t *testing.T) {
	seeds := 600
	if testing.Short() {
		seeds = 60
	}
	cfg := DefaultConfig()
	var sawChan, sawFanIn int
	for seed := 0; seed < seeds; seed++ {
		src := Generate(rand.New(rand.NewSource(int64(seed))), cfg)

		if n := strings.Count(src, "\n"); n > 400 {
			t.Fatalf("seed %d: program is %d lines, budget is not bounding size\n%s", seed, n, src)
		}
		prog, err := occam.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: does not parse: %v\n%s", seed, err, src)
		}
		checkChannelBalance(t, seed, src)
		if strings.Contains(src, "chan ") {
			sawChan++
			if strings.Contains(src, "] ! ") {
				sawFanIn++
			}
		}
		if _, err := interp.RunLimited(prog, interpBudget); err != nil {
			t.Fatalf("seed %d: interpreter rejects: %v\n%s", seed, err, src)
		}
	}
	// The campaign is pointless if the rare paths never fire.
	if sawChan < seeds/10 {
		t.Errorf("only %d/%d programs communicate; channel weighting regressed", sawChan, seeds)
	}
	if sawFanIn == 0 {
		t.Errorf("no program used replicated-par fan-in over %d seeds", seeds)
	}
}

var chanOpRE = regexp.MustCompile(`(c\d+)(\[[^\]]*\])? ([!?]) `)

// checkChannelBalance verifies textually that every channel name performs
// equally many sends and receives — the static face of the script
// discipline that makes generated programs deadlock-free.
func checkChannelBalance(t *testing.T, seed int, src string) {
	t.Helper()
	sends := map[string]int{}
	recvs := map[string]int{}
	for _, m := range chanOpRE.FindAllStringSubmatch(src, -1) {
		if m[3] == "!" {
			sends[m[1]]++
		} else {
			recvs[m[1]]++
		}
	}
	for ch, n := range sends {
		// Fan-in channels send once per replicated instance and receive
		// once inside a collector loop; their textual counts are 1:1 with
		// the single send and single receive line.
		if recvs[ch] == 0 {
			t.Fatalf("seed %d: channel %s has %d sends but no receive\n%s", seed, ch, n, src)
		}
	}
	for ch, n := range recvs {
		if sends[ch] == 0 {
			t.Fatalf("seed %d: channel %s has %d receives but no send\n%s", seed, ch, n, src)
		}
	}
}

// TestGeneratorDeterministic pins that a seed fully determines the
// program, across configurations.
func TestGeneratorDeterministic(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), scalarConfig, {Budget: 10, MaxDepth: 3}, {Budget: 40, MaxDepth: 5, Channels: true, Procs: 3}} {
		a := Generate(rand.New(rand.NewSource(99)), cfg)
		b := Generate(rand.New(rand.NewSource(99)), cfg)
		if a != b {
			t.Fatalf("config %+v: same seed produced different programs", cfg)
		}
	}
	if Generate(rand.New(rand.NewSource(1)), DefaultConfig()) == Generate(rand.New(rand.NewSource(2)), DefaultConfig()) {
		t.Error("different seeds produced identical programs")
	}
}

// scalarConfig is the small channel-free shape: def mag, the pf and pv
// procedures and a handful of top-level statements.
var scalarConfig = Config{Budget: 6, MaxDepth: 4, Procs: 2}

// TestDifferentialSeeds runs the full oracle — interpreter vs compiler
// configurations vs machine sizes — over a seed range of the default
// shape.
func TestDifferentialSeeds(t *testing.T) {
	checkSeeds(t, DefaultConfig(), 50, 6)
}

// TestDifferentialScalarSeeds runs the same oracle over a seed range of
// scalarConfig.
func TestDifferentialScalarSeeds(t *testing.T) {
	checkSeeds(t, scalarConfig, 60, 8)
}

// checkSeeds runs CheckSeed on seeds 0..seeds-1 of cfg, or 0..short-1
// with -short, one subtest per seed.
func checkSeeds(t *testing.T, cfg Config, seeds, short int) {
	if testing.Short() {
		seeds = short
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			if f := CheckSeed(int64(seed), cfg); f != nil {
				t.Fatalf("config %+v: %s", cfg, f.Error())
			}
		})
	}
}

// TestCheckProgramCatchesDivergence feeds the oracle a program whose
// behavior it must reject at some stage (here: a parse error), proving the
// harness cannot silently pass garbage.
func TestCheckProgramCatchesDivergence(t *testing.T) {
	f := CheckProgram("var out[8], va[8], vb[4]:\nseq\n  out[0] :=\n")
	if f == nil {
		t.Fatal("oracle accepted an unparseable program")
	}
	if f.Stage != "parse" {
		t.Errorf("stage = %s, want parse", f.Stage)
	}
	f = CheckProgram("var out[8], va[8], vb[4], x:\nchan c:\npar\n  c ! 1\n  c ! 2\n")
	if f == nil {
		t.Fatal("oracle accepted a deadlocking program")
	}
}

// TestShrinkReducesProgram checks the minimizer strips statements
// irrelevant to a failure predicate.
func TestShrinkReducesProgram(t *testing.T) {
	src := "var v[4], a, b, c:\nseq\n  a := 1\n  b := 2\n  c := 3\n  v[9] := a\n  b := b + 1\n"
	min := Shrink(src, func(cand string) bool {
		return strings.Contains(cand, "v[9]")
	})
	if !strings.Contains(min, "v[9]") {
		t.Fatalf("shrinking lost the failure:\n%s", min)
	}
	if strings.Count(min, "\n") >= strings.Count(src, "\n") {
		t.Errorf("shrinking removed nothing:\n%s", min)
	}
	if strings.Contains(min, "c := 3") {
		t.Errorf("irrelevant statement survived:\n%s", min)
	}
}

// TestShrinkPredicateBudget pins the evaluation cap: a pathological
// predicate cannot make shrinking run unbounded.
func TestShrinkPredicateBudget(t *testing.T) {
	var lines []string
	for i := 0; i < 300; i++ {
		lines = append(lines, fmt.Sprintf("  s0 := %d", i))
	}
	src := "var s0:\nseq\n" + strings.Join(lines, "\n") + "\n"
	evals := 0
	Shrink(src, func(string) bool {
		evals++
		return false
	})
	if evals > maxShrinkEvals {
		t.Errorf("predicate evaluated %d times, cap is %d", evals, maxShrinkEvals)
	}
}
