// Command perfbench is the repository's benchmark. It drives the compile →
// simulate → serve path under one of three workloads and prints, as the
// last line of its standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the bounded end-to-end ones, and the line
// before it carries the unbounded ones; with -trace 1 a separate traced
// run prints the per-layer ones. Every operation is checked
// against an oracle; README.md lists the workloads, the metrics and what
// each per-layer metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"queuemachine/internal/xtrace"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"sim_cycles", "cycles"},
	{"run_p50_ms", "ms"},
	{"sat_rps", "req/s"},
	{"heap_peak_mb", "MB"},
}

// unbounded are end-to-end metrics every untraced run prints on the
// record line ahead of the result, not in it. BENCHMARK.json bounds no
// metric of theirs: on a shared host their spread from run to run of the
// same code is wider than the widest bound it may set (README.md).
var unbounded = []metricDef{
	{"run_p99_ms", "ms"},
}

// perLayer are the metrics of single layers, printed by every traced run.
// A layer a workload's path does not pass through reads 0 on it.
var perLayer = []metricDef{
	{"occam.parse_ms", "ms"},
	{"compile.back_ms", "ms"},
	{"compile.object_instrs", "count"},
	{"compile.graphs", "count"},
	{"pe.load_us", "us"},
	{"sim.new_us", "us"},
	{"sim.loop_ms", "ms"},
	{"sim.ns_per_instr.1pe", "ns"},
	{"sim.ns_per_instr.64pe", "ns"},
	{"pe.instructions", "count"},
	{"pe.rolled_registers", "count"},
	{"kernel.contexts", "count"},
	{"kernel.switches", "count"},
	{"kernel.migrations", "count"},
	{"mcache.hit_ratio", "ratio"},
	{"mcache.evictions", "count"},
	{"ring.messages", "count"},
	{"ring.wait_cycles", "cycles"},
	{"service.overhead_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.queue_wait_p99_ms", "ms"},
	{"service.artifact_ms", "ms"},
	{"service.simulate_ms", "ms"},
	{"service.handler_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.coalesced_ratio", "ratio"},
	{"service.rejected", "count"},
	{"service.disk_writes", "count"},
	{"gate.relay_ms", "ms"},
	{"gate.attempts_per_req", "count"},
	{"fleet.peer_fetches", "count"},
	{"client.wire_ms", "ms"},
	{"load.late_p50_ms", "ms"},
	{"load.late_p99_ms", "ms"},
	{"unexplained_ms", "ms"},
	{"trace.overhead_p50_ms", "ms"},
	{"trace.overhead_p99_ms", "ms"},
	{"trace.overhead_sat_rps", "req/s"},
}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	measure  time.Duration // the measured phase, split across its loops
	traced   bool
	out      string // result and span files; fleet scratch directories
}

// report is what a workload run produces. Values holds the metrics by
// name; Detail holds everything else worth keeping with the result
// (sample counts, the traced run's own end-to-end figures).
type report struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Values    map[string]float64
	Detail    map[string]any
	Spans     []xtrace.Span
	Problems  []string // why Correct is false, at most a few
}

func newReport() *report {
	return &report{Correct: true, Values: map[string]float64{}, Detail: map[string]any{}}
}

// fail records a failed operation and the first few reasons.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	r.Correct = false
	if len(r.Problems) < 8 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// invalid marks the whole run incorrect without counting an operation:
// a broken self-test or a baseline mismatch found before measuring.
func (r *report) invalid(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 8 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var opt options
	var seconds, trace int
	flag.StringVar(&opt.workload, "workload", "", "sweep, serve-hot or serve-cold")
	flag.Int64Var(&opt.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&seconds, "seconds", 45, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	opt.out = ".bench_build" // run.sh's build directory; the run starts at the checkout root
	if seconds < 1 || (trace != 0 && trace != 1) {
		fatalf("need -seconds >= 1 and -trace 0 or 1")
	}
	opt.measure = time.Duration(seconds) * time.Second
	opt.traced = trace == 1

	var run func(options) (*report, error)
	switch opt.workload {
	case "sweep":
		run = runSweep
	case "serve-hot":
		run = runServeHot
	case "serve-cold":
		run = runServeCold
	default:
		fatalf("unknown -workload %q (want sweep, serve-hot or serve-cold)", opt.workload)
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		fatalf("%v", err)
	}
	rep, err := run(opt)
	if err != nil {
		fatalf("%s: %v", opt.workload, err)
	}
	defs := endToEnd
	if opt.traced {
		defs = perLayer
	}
	res := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: pick(rep, opt.workload, defs)}
	if res.Attempted < 1 {
		fatalf("%s: no operation attempted", opt.workload)
	}

	// The host block and the seed travel with every result: on stdout
	// ahead of the result line, and in the result file.
	record := map[string]any{
		"workload": opt.workload,
		"seed":     opt.seed,
		"seconds":  seconds,
		"trace":    trace,
		"host":     hostBlock(),
		"detail":   rep.Detail,
		"problems": rep.Problems,
		"result":   res,
	}
	if !opt.traced {
		record["unbounded"] = pick(rep, opt.workload, unbounded)
	}
	stem := fmt.Sprintf("%s-seed%d-trace%d", opt.workload, opt.seed, trace)
	if err := writeJSON(filepath.Join(opt.out, "results", stem+".json"), record); err != nil {
		fatalf("%v", err)
	}
	if opt.traced {
		if err := writeJSON(filepath.Join(opt.out, "spans", stem+".json"), rep.Spans); err != nil {
			fatalf("%v", err)
		}
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: incorrect:", p)
	}
	delete(record, "result")
	line, err := json.Marshal(record)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

// pick returns the named metrics of a report with their units.
func pick(rep *report, workload string, defs []metricDef) map[string]metricValue {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := rep.Values[d.name]
		if !ok {
			fatalf("%s: metric %s was not measured", workload, d.name)
		}
		m[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return m
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// hostBlock describes the machine a result was measured on.
func hostBlock() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
	}
}

// cpuModel reads the CPU model name on Linux; elsewhere it is "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
