package sim

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"queuemachine/internal/compile"
	"queuemachine/internal/isa"
	"queuemachine/internal/pe"
	"queuemachine/internal/workloads"
)

// recordedRun is everything observable about one simulation: its result,
// the log of every recorder hook it made, and its error.
type recordedRun struct {
	res *Result
	log string
	err error
}

// runRecorded builds a system with build, attaches a full hook log and
// runs it to completion.
func runRecorded(build func() (*System, error)) recordedRun {
	sys, err := build()
	if err != nil {
		return recordedRun{err: err}
	}
	rec := &logRecorder{every: 64}
	sys.SetRecorder(rec)
	res, err := sys.Run()
	return recordedRun{res: res, log: rec.b.String(), err: err}
}

// sameRun reports how two recorded runs differ, or "" when they do not.
func sameRun(a, b recordedRun) string {
	switch {
	case fmt.Sprint(a.err) != fmt.Sprint(b.err):
		return fmt.Sprintf("errors differ: %v vs %v", a.err, b.err)
	case !reflect.DeepEqual(a.res, b.res):
		return fmt.Sprintf("results differ:\n%+v\n%+v", a.res, b.res)
	case a.log != b.log:
		return "hook logs differ at " + firstLogDiff(a.log, b.log)
	}
	return ""
}

// checkSharedProgram loads obj once and runs the one loaded program on
// every machine size, first all sizes concurrently and then each size
// with a full hook log (one at a time, to bound the logs' memory), and
// checks every run against a recorded sim.New of the object. It returns
// the cycle counts by machine size.
func checkSharedProgram(t *testing.T, name string, obj *isa.Object, peCounts []int) map[int]int64 {
	t.Helper()
	prog, err := pe.LoadProgram(obj)
	if err != nil {
		t.Fatalf("%s: LoadProgram: %v", name, err)
	}
	concurrent := make([]recordedRun, len(peCounts))
	var wg sync.WaitGroup
	for i, pes := range peCounts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sys, err := NewProgram(prog, pes, DefaultParams())
			if err == nil {
				concurrent[i].res, err = sys.Run()
			}
			concurrent[i].err = err
		}()
	}
	wg.Wait()
	cycles := map[int]int64{}
	for i, pes := range peCounts {
		fresh := runRecorded(func() (*System, error) { return New(obj, pes, DefaultParams()) })
		shared := runRecorded(func() (*System, error) { return NewProgram(prog, pes, DefaultParams()) })
		if d := sameRun(fresh, shared); d != "" {
			t.Errorf("%s on %d PEs: shared program run differs from sim.New: %s", name, pes, d)
		}
		concurrent[i].log = fresh.log
		if d := sameRun(fresh, concurrent[i]); d != "" {
			t.Errorf("%s on %d PEs: concurrent shared program run differs from sim.New: %s", name, pes, d)
		}
		if shared.res != nil {
			cycles[pes] = shared.res.Cycles
		}
	}
	return cycles
}

// loadBaseline reads the committed exact-cycle baseline.
func loadBaseline(t *testing.T) map[string]int64 {
	t.Helper()
	blob, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Benchmarks map[string]int64 `json:"benchmarks"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Benchmarks
}

// TestNewProgramMatchesNew is the load-once contract servers rely on: one
// loaded program, shared by concurrent simulations, gives every run the
// same Result, hook log and error as sim.New on the object. It covers
// every point of BENCH_baseline.json (and checks the cycles against it),
// the 64-PE gate and the programs the simulator must refuse.
func TestNewProgramMatchesNew(t *testing.T) {
	baseline := loadBaseline(t)
	covered := map[string]bool{}
	check := func(bench string, wl workloads.Workload, opts compile.Options, peCounts []int) {
		art, err := compile.Compile(wl.Source, opts)
		if err != nil {
			t.Fatalf("%s: Compile: %v", bench, err)
		}
		for pes, got := range checkSharedProgram(t, bench, art.Object, peCounts) {
			name := bench
			if len(peCounts) > 1 {
				name = fmt.Sprintf("%s/pes-%d", bench, pes)
			}
			covered[name] = true
			if want, ok := baseline[name]; !ok || got != want {
				t.Errorf("%s: %d cycles, baseline %d (present %v)", name, got, want, ok)
			}
		}
	}
	one8 := []int{1, 2, 3, 4, 5, 6, 7, 8}
	gen2 := []int{1, 2, 4, 8}
	check("BenchmarkFig68Matmul", workloads.MatMul(8), compile.Options{}, one8)
	check("BenchmarkFig610FFT", workloads.FFT(6), compile.Options{}, one8)
	check("BenchmarkFig611Cholesky", workloads.Cholesky(8), compile.Options{}, one8)
	check("BenchmarkFig612Congruence", workloads.Congruence(8), compile.Options{}, one8)
	for _, wl := range []workloads.Workload{workloads.BinaryRecursiveSum(32), workloads.IterativeSum(32)} {
		check("BenchmarkFig69/"+wl.Name, wl, compile.Options{}, []int{4})
	}
	// The Table 6.6 optimization cases (experiments.OptimizationCases,
	// which this package cannot import).
	for _, c := range []struct {
		name string
		opts compile.Options
	}{
		{"all optimizations on", compile.Options{}},
		{"no pi_I input ordering", compile.Options{NoInputOrder: true}},
		{"no live-value filtering", compile.Options{NoLiveFilter: true}},
		{"no priority sequencing", compile.Options{NoPriority: true}},
		{"no constant folding/immediates", compile.Options{NoConstFold: true}},
		{"all optimizations off", compile.Options{NoInputOrder: true, NoLiveFilter: true, NoPriority: true, NoConstFold: true}},
	} {
		check("BenchmarkTable66/"+strings.ReplaceAll(c.name, " ", "_"), workloads.MatMul(6), c.opts, []int{4})
	}
	check("BenchmarkGen2Bitonic", workloads.Bitonic(4), compile.Options{}, gen2)
	check("BenchmarkGen2LU", workloads.LU(6), compile.Options{}, gen2)
	check("BenchmarkGen2Stencil", workloads.Stencil(16, 4), compile.Options{}, gen2)
	check("BenchmarkGen2Chain", workloads.Chain(24), compile.Options{}, gen2)
	for name := range baseline {
		if !covered[name] {
			t.Errorf("baseline point %s not covered", name)
		}
	}
	if len(covered) != 56 {
		t.Errorf("covered %d baseline points, want 56", len(covered))
	}

	// The 64-PE gate's programs (TestSixtyFourPECounts holds their counts).
	for _, wl := range workloads.Gated() {
		art, err := compile.Compile(wl.Source, compile.Options{})
		if err != nil {
			t.Fatalf("%s: Compile: %v", wl.Name, err)
		}
		checkSharedProgram(t, wl.Name, art.Object, []int{64})
	}

	// Refused programs and machine sizes fail the same way either path.
	for _, tc := range runErrorCases {
		obj := assemble(t, tc.src)
		prog, err := pe.LoadProgram(obj)
		if err != nil {
			t.Fatalf("%s: LoadProgram: %v", tc.name, err)
		}
		fresh := runRecorded(func() (*System, error) { return New(obj, tc.pes, DefaultParams()) })
		shared := runRecorded(func() (*System, error) { return NewProgram(prog, tc.pes, DefaultParams()) })
		if fresh.err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if d := sameRun(fresh, shared); d != "" {
			t.Errorf("%s: %s", tc.name, d)
		}
	}
}
