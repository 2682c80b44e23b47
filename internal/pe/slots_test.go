package pe_test

import (
	"fmt"
	"testing"

	"queuemachine/internal/compile"
	"queuemachine/internal/load"
	"queuemachine/internal/occamgen"
	"queuemachine/internal/pe"
	"queuemachine/internal/workloads"
)

// TestLoadedSlotsMatchDecode loads the eight sweep programs, the load
// corpus and occamgen seeds 1–400, compiled under the default options,
// and checks every slot against isa.Decode: the narrow slot fields must
// hold every instruction the compiler emits without loss.
func TestLoadedSlotsMatchDecode(t *testing.T) {
	type program struct{ name, src string }
	var progs []program
	for _, wl := range workloads.Gated() {
		progs = append(progs, program{"sweep/" + wl.Name, wl.Source})
	}
	corpus, err := load.Corpus("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range corpus {
		progs = append(progs, program{"corpus/" + p.Name, p.Source})
	}
	for seed := int64(1); seed <= 400; seed++ {
		progs = append(progs, program{fmt.Sprintf("occamgen/%d", seed),
			occamgen.GenerateSeed(seed, occamgen.DefaultConfig())})
	}
	for _, p := range progs {
		art, err := compile.Compile(p.src, compile.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		prog, err := pe.LoadProgram(art.Object)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if err := pe.CheckSlots(prog); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
	}
}
