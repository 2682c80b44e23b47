package occamgen

import (
	"fmt"
	"math/rand"
	"strings"

	"queuemachine/internal/compile"
	"queuemachine/internal/interp"
	"queuemachine/internal/occam"
	"queuemachine/internal/sim"
)

// checkedVectors are the program state the differential oracle compares:
// every generated program funnels all its scalars into out, so these three
// vectors cover the whole observable store.
var checkedVectors = []string{"out", "va", "vb"}

// interpBudget bounds the reference execution of one generated program.
// Generated loops are tiny, so a legitimate program finishes well under
// this; only an (impossible, by construction) runaway would hit it.
const interpBudget = 2_000_000

// diffConfigs are the compiler settings every program runs under. The
// fully de-optimized configuration routes every constant through the
// operand queue and may legitimately exceed the architecture's 256-word
// page limit; that specific failure is skipped.
var diffConfigs = []struct {
	Name string
	Opts compile.Options
}{
	{"optimized", compile.Options{}},
	{"unoptimized", compile.Options{NoInputOrder: true, NoLiveFilter: true, NoPriority: true, NoConstFold: true}},
}

// diffPECounts are the machine sizes every configuration simulates on:
// one element, a small shared bus, and 16 elements in eight ring
// partitions, where rendezvous are remote and routing crosses partitions.
var diffPECounts = []int{1, 3, 16}

// Failure describes one differential divergence, with everything needed to
// reproduce and report it.
type Failure struct {
	Seed   int64  // generating seed (-1 when the source came from elsewhere)
	Src    string // the offending program
	Stage  string // pipeline stage that diverged or errored
	Detail string // what went wrong
	// Minimized is the shrunken reproducer (empty until Shrink runs).
	Minimized string
}

func (f *Failure) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "occamgen: differential failure at %s: %s\n", f.Stage, f.Detail)
	if f.Seed >= 0 {
		fmt.Fprintf(&b, "reproduce with: go run ./cmd/qfuzz -seed %d -n 1\n", f.Seed)
	}
	src := f.Src
	if f.Minimized != "" {
		src = f.Minimized
		b.WriteString("minimized program:\n")
	} else {
		b.WriteString("program:\n")
	}
	b.WriteString(src)
	return b.String()
}

// CheckProgram runs one source program through the full differential
// oracle: reference interpreter vs compiled object code under every
// configuration in diffConfigs, simulated at every size in diffPECounts.
// A nil return means every configuration agreed on every checked vector.
func CheckProgram(src string) *Failure {
	fail := func(stage, format string, args ...any) *Failure {
		return &Failure{Seed: -1, Src: src, Stage: stage, Detail: fmt.Sprintf(format, args...)}
	}
	prog, err := occam.Parse(src)
	if err != nil {
		return fail("parse", "%v", err)
	}
	ref, err := interp.RunLimited(prog, interpBudget)
	if err != nil {
		return fail("interp", "%v", err)
	}
	want := map[string][]int32{}
	for _, name := range checkedVectors {
		v, err := ref.VectorByName(name)
		if err != nil {
			return fail("interp", "missing vector %s: %v", name, err)
		}
		want[name] = v
	}
	for _, cfg := range diffConfigs {
		art, err := compile.Compile(src, cfg.Opts)
		if err != nil {
			if cfg.Opts.NoConstFold && strings.Contains(err.Error(), "operand queue") {
				continue
			}
			return fail("compile/"+cfg.Name, "%v", err)
		}
		for _, pes := range diffPECounts {
			res, err := sim.Run(art.Object, pes, sim.DefaultParams())
			if err != nil {
				return fail(fmt.Sprintf("sim/%s/%dpe", cfg.Name, pes), "%v", err)
			}
			for _, name := range checkedVectors {
				base, err := art.VectorBase(name)
				if err != nil {
					return fail("layout/"+cfg.Name, "vector %s: %v", name, err)
				}
				for i, wv := range want[name] {
					if got := res.Data[int(base)/4+i]; got != wv {
						return fail(fmt.Sprintf("compare/%s/%dpe", cfg.Name, pes),
							"%s[%d] = %d, interpreter says %d", name, i, got, wv)
					}
				}
			}
		}
	}
	return nil
}

// CheckSeed generates the program for one seed and runs the differential
// oracle over it, shrinking any failure to a minimal reproducer.
func CheckSeed(seed int64, cfg Config) *Failure {
	src := Generate(rand.New(rand.NewSource(seed)), cfg)
	f := CheckProgram(src)
	if f == nil {
		return nil
	}
	f.Seed = seed
	f.Minimized = Shrink(src, func(candidate string) bool {
		c := CheckProgram(candidate)
		return c != nil && c.Stage == f.Stage
	})
	return f
}
