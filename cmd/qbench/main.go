// Command qbench turns `go test -bench` output into a benchmark-regression
// gate on the simulated cycle counts. The simulator is deterministic, so the
// "simcycles" metric each Chapter 6 benchmark reports is exact: any drift
// from the committed baseline is a behavioural change, not noise, and the
// gate compares for equality rather than within a tolerance.
//
// Usage:
//
//	go test -bench 'Fig6|Table6' -benchtime 1x | qbench -out BENCH_ci.json
//	    record a run: parse the bench output and write the cycle counts
//
//	go test -bench ... | qbench -baseline BENCH_baseline.json -out BENCH_ci.json
//	    gate a run: additionally compare against the committed baseline and
//	    exit 1 when any benchmark drifted or disappeared
//
//	qbench -profile -out profiles/
//	    run representative Chapter 6 workloads under the cycle-attribution
//	    profiler, write each run's attribution and critical path as JSON
//	    into the directory, and exit 1 if any run's attribution fails to
//	    sum exactly to PEs × makespan (the profiler's defining invariant —
//	    a violation means the accounting itself broke, which gates CI).
//
//	qbench -sweep -out sweep.json
//	    run the scheduler design-space explorer: the Chapter 6 suite across
//	    every scheduling policy × machine sizes (× message-cache and ring
//	    partition variants when requested), writing per-point cycles,
//	    profiler cause attribution and Amdahl fits as JSON. -sweep-smoke
//	    selects the small report-only CI grid; -sweep-benches,
//	    -sweep-policies, -sweep-pes, -sweep-mcache and -sweep-partitions
//	    override the grid axes (comma-separated).
//
// Bench output is read from the named file argument, or stdin when absent.
// Benchmarks present in the run but not the baseline are reported as new
// without failing the gate (commit the refreshed file to accept them).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"queuemachine/internal/compile"
	"queuemachine/internal/experiments"
	"queuemachine/internal/profile"
	"queuemachine/internal/sim"
	"queuemachine/internal/workloads"
)

// Report is the JSON document qbench reads and writes. Cycle counts are
// keyed by benchmark name with the -GOMAXPROCS suffix stripped, so the gate
// is insensitive to the machine the run happened on.
type Report struct {
	Metric     string           `json:"metric"`
	Benchmarks map[string]int64 `json:"benchmarks"`
}

// procSuffix matches the "-8" GOMAXPROCS suffix go test appends to benchmark
// names when GOMAXPROCS > 1. Sub-benchmark names also end in digits
// ("pes-4"), so parse only strips a suffix every benchmark line of the run
// shares — that uniformity is what distinguishes the GOMAXPROCS suffix from
// a name that happens to end in a number.
var procSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	var (
		baselinePath = flag.String("baseline", "", "committed baseline JSON to gate against")
		outPath      = flag.String("out", "", "write this run's cycle counts as JSON")
		profileMode  = flag.Bool("profile", false,
			"profile representative benchmarks and gate the attribution-sum invariant")
		sweepMode = flag.Bool("sweep", false,
			"run the scheduler design-space sweep and write the report JSON")
		sweepSmoke = flag.Bool("sweep-smoke", false,
			"use the small CI smoke grid (implies -sweep)")
		sweepBenches = flag.String("sweep-benches", "",
			"comma-separated benchmark subset for -sweep")
		sweepPolicies = flag.String("sweep-policies", "",
			"comma-separated policy subset for -sweep")
		sweepPEs = flag.String("sweep-pes", "",
			"comma-separated machine sizes for -sweep")
		sweepMCache = flag.String("sweep-mcache", "",
			"comma-separated message-cache capacities for -sweep")
		sweepParts = flag.String("sweep-partitions", "",
			"comma-separated ring partition counts for -sweep")
	)
	flag.Parse()
	if *sweepMode || *sweepSmoke {
		if *profileMode || *baselinePath != "" {
			fatal(fmt.Errorf("-sweep runs its own simulations; -profile and -baseline are not allowed"))
		}
		runSweep(*outPath, *sweepSmoke, *sweepBenches, *sweepPolicies,
			*sweepPEs, *sweepMCache, *sweepParts)
		return
	}
	if *profileMode {
		if *baselinePath != "" {
			fatal(fmt.Errorf("-profile runs its own simulations; -baseline is not allowed"))
		}
		runProfiles(*outPath)
		return
	}

	in := io.Reader(os.Stdin)
	switch flag.NArg() {
	case 0:
	case 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	default:
		fmt.Fprintln(os.Stderr, "usage: qbench [-baseline file] [-out file] [bench-output]")
		os.Exit(2)
	}

	current, err := parse(in)
	if err != nil {
		fatal(err)
	}
	if len(current.Benchmarks) == 0 {
		fatal(fmt.Errorf("no simcycles metrics found in bench output"))
	}
	if *outPath != "" {
		blob, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*outPath, append(blob, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if *baselinePath == "" {
		fmt.Printf("qbench: recorded %d benchmarks\n", len(current.Benchmarks))
		return
	}

	blob, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	var baseline Report
	if err := json.Unmarshal(blob, &baseline); err != nil {
		fatal(fmt.Errorf("parse %s: %w", *baselinePath, err))
	}

	var drifted, missing, fresh []string
	for _, name := range sortedKeys(baseline.Benchmarks) {
		want := baseline.Benchmarks[name]
		got, ok := current.Benchmarks[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		if got != want {
			drifted = append(drifted,
				fmt.Sprintf("%s: %d cycles, baseline %d (%+d)", name, got, want, got-want))
		}
	}
	for _, name := range sortedKeys(current.Benchmarks) {
		if _, ok := baseline.Benchmarks[name]; !ok {
			fresh = append(fresh, name)
		}
	}

	for _, name := range fresh {
		fmt.Printf("qbench: new benchmark %s (%d cycles, not gated)\n",
			name, current.Benchmarks[name])
	}
	if len(drifted) == 0 && len(missing) == 0 {
		fmt.Printf("qbench: %d benchmarks match the baseline exactly\n",
			len(baseline.Benchmarks)-len(missing))
		return
	}
	for _, line := range drifted {
		fmt.Fprintf(os.Stderr, "qbench: cycle drift: %s\n", line)
	}
	for _, name := range missing {
		fmt.Fprintf(os.Stderr, "qbench: benchmark %s missing from this run\n", name)
	}
	fmt.Fprintf(os.Stderr,
		"qbench: FAIL: %d drifted, %d missing (refresh %s if the change is intended)\n",
		len(drifted), len(missing), *baselinePath)
	os.Exit(1)
}

// parse extracts the simcycles metric from go test bench output lines, e.g.
//
//	BenchmarkFig68Matmul/pes-4-8   1   937432 ns/op   51742 simcycles   ...
func parse(r io.Reader) (*Report, error) {
	vals, err := parseMetric(r, "simcycles")
	if err != nil {
		return nil, err
	}
	rep := &Report{Metric: "simcycles", Benchmarks: make(map[string]int64, len(vals))}
	for name, v := range vals {
		rep.Benchmarks[name] = int64(v)
	}
	return rep, nil
}

// parseMetric extracts one named custom metric from go test bench output,
// keyed by benchmark name with any uniform GOMAXPROCS suffix stripped.
func parseMetric(r io.Reader, metric string) (map[string]float64, error) {
	vals := map[string]float64{}
	var allNames []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		allNames = append(allNames, name)
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != metric {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark %s: bad %s %q", name, metric, fields[i])
			}
			vals[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if suffix := commonProcSuffix(allNames); suffix != "" {
		trimmed := make(map[string]float64, len(vals))
		for name, v := range vals {
			trimmed[strings.TrimSuffix(name, suffix)] = v
		}
		vals = trimmed
	}
	return vals, nil
}

// commonProcSuffix returns the "-N" GOMAXPROCS suffix when every benchmark
// in the run — including top-level names like BenchmarkFig66, which never
// end in digits of their own — carries the same one, and "" otherwise (in
// particular on GOMAXPROCS=1 runs, where go test appends nothing).
func commonProcSuffix(names []string) string {
	suffix := ""
	for _, name := range names {
		s := procSuffix.FindString(name)
		if s == "" {
			return ""
		}
		if suffix == "" {
			suffix = s
		} else if s != suffix {
			return ""
		}
	}
	return suffix
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// profileCases are the representative benchmarks the -profile gate runs:
// one per program shape (regular matrix product, butterfly communication,
// triangular dependence, and a channel-bound rendezvous pipeline), all at
// the full 8-element machine where the rendezvous and ring machinery is
// busiest.
func profileCases() []struct {
	name string
	wl   workloads.Workload
	pes  int
} {
	return []struct {
		name string
		wl   workloads.Workload
		pes  int
	}{
		{"fig68-matmul-8", workloads.MatMul(8), 8},
		{"fig610-fft-6", workloads.FFT(6), 8},
		{"fig611-cholesky-8", workloads.Cholesky(8), 8},
		{"gen2-chain-24", workloads.Chain(24), 8},
	}
}

// runProfiles simulates the representative benchmarks under the profiler,
// verifies the attribution-sum invariant, and writes each profile as JSON
// into outDir (when set). Any invariant violation or failed run exits 1.
func runProfiles(outDir string) {
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fatal(err)
		}
	}
	failed := false
	for _, c := range profileCases() {
		art, err := compile.Compile(c.wl.Source, compile.Options{})
		if err != nil {
			fatal(fmt.Errorf("%s: compile: %w", c.name, err))
		}
		sys, err := sim.New(art.Object, c.pes, sim.DefaultParams())
		if err != nil {
			fatal(fmt.Errorf("%s: %w", c.name, err))
		}
		p := profile.New(c.pes)
		names := make([]string, len(art.Object.Graphs))
		for i, g := range art.Object.Graphs {
			names[i] = g.Name
		}
		p.SetGraphNames(names)
		sys.SetRecorder(p)
		res, err := sys.Run()
		if err != nil {
			fatal(fmt.Errorf("%s: run: %w", c.name, err))
		}
		if err := c.wl.Check(art, res.Data); err != nil {
			fatal(fmt.Errorf("%s: wrong answer: %w", c.name, err))
		}
		prof := p.Finalize(res.Cycles)

		var sum int64
		for _, v := range prof.Causes {
			sum += v
		}
		want := int64(c.pes) * res.Cycles
		if sum != want {
			fmt.Fprintf(os.Stderr,
				"qbench: FAIL %s: attribution sums to %d cycles, want %d PEs × %d = %d\n",
				c.name, sum, c.pes, res.Cycles, want)
			failed = true
		}
		var pathSum int64
		for _, v := range prof.CriticalPath.Causes {
			pathSum += v
		}
		if pathSum != res.Cycles {
			fmt.Fprintf(os.Stderr,
				"qbench: FAIL %s: critical path sums to %d cycles, want makespan %d\n",
				c.name, pathSum, res.Cycles)
			failed = true
		}
		fmt.Printf("qbench: %s: %d cycles on %d PEs, execute %.1f%%, critical path %.1f%% compute\n",
			c.name, res.Cycles, c.pes,
			100*float64(prof.Causes["execute"])/float64(want),
			100*float64(prof.CriticalPath.Causes["execute"])/float64(res.Cycles))

		if outDir != "" {
			blob, err := json.MarshalIndent(prof, "", "  ")
			if err != nil {
				fatal(err)
			}
			path := filepath.Join(outDir, c.name+".json")
			if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
				fatal(err)
			}
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "qbench: FAIL: attribution invariant violated")
		os.Exit(1)
	}
	fmt.Printf("qbench: %d profiles verified: attribution sums to PEs × makespan\n", len(profileCases()))
}

// runSweep drives the scheduler design-space explorer. The report is
// written as JSON to outPath (when set) and a per-point progress line plus
// a winners summary go to stdout. Sweeps are report-only: any simulation
// failure or wrong answer exits 1, but a policy losing to the baseline
// never does.
func runSweep(outPath string, smoke bool, benches, policies, pes, mcache, parts string) {
	spec := experiments.DefaultSweepSpec()
	if smoke {
		spec = experiments.SmokeSweepSpec()
	}
	if benches != "" {
		spec.Benchmarks = splitList(benches)
	}
	if policies != "" {
		spec.Policies = splitList(policies)
	}
	var err error
	if pes != "" {
		if spec.PECounts, err = splitInts(pes); err != nil {
			fatal(fmt.Errorf("-sweep-pes: %w", err))
		}
	}
	if mcache != "" {
		if spec.MCacheEntries, err = splitInts(mcache); err != nil {
			fatal(fmt.Errorf("-sweep-mcache: %w", err))
		}
	}
	if parts != "" {
		if spec.Partitions, err = splitInts(parts); err != nil {
			fatal(fmt.Errorf("-sweep-partitions: %w", err))
		}
	}
	rep, err := experiments.RunPolicySweep(context.Background(), spec, os.Stdout)
	if err != nil {
		fatal(err)
	}
	fmt.Println()
	experiments.WriteSweepSummary(os.Stdout, rep)
	if outPath != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("qbench: wrote %d sweep points to %s\n", len(rep.Points), outPath)
	}
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "qbench: %v\n", err)
	os.Exit(1)
}
