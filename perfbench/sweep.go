package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"
	"time"

	"queuemachine/internal/compile"
	"queuemachine/internal/isa"
	"queuemachine/internal/sim"
	"queuemachine/internal/workloads"
	"queuemachine/internal/xtrace"
)

// sweepProgram is one exact-gated program at its bench_test.go size, with
// the BENCH_baseline.json entry prefix that holds its cycle counts.
type sweepProgram struct {
	wl       workloads.Workload
	baseline string
}

func sweepPrograms() []sweepProgram {
	return []sweepProgram{
		{workloads.MatMul(8), "BenchmarkFig68Matmul"},
		{workloads.FFT(6), "BenchmarkFig610FFT"},
		{workloads.Cholesky(8), "BenchmarkFig611Cholesky"},
		{workloads.Congruence(8), "BenchmarkFig612Congruence"},
		{workloads.Bitonic(4), "BenchmarkGen2Bitonic"},
		{workloads.LU(6), "BenchmarkGen2LU"},
		{workloads.Stencil(16, 4), "BenchmarkGen2Stencil"},
		{workloads.Chain(24), "BenchmarkGen2Chain"},
	}
}

// sweepPEs spans the thesis's 1–8 PE range plus 64, where kernel
// placement and ring traffic dominate.
var sweepPEs = []int{1, 2, 4, 8, 64}

// A run repeats its set-up at least minSetups times and until
// setupBudget has passed; setup_s is the median. A cheap set-up is
// repeated more, so its median is as steady as a costly one's. On a
// shared host the speed of any one second can be off by half, so the
// repetitions are spread over several.
const (
	minSetups   = 3
	setupBudget = 4 * time.Second
)

// setupDone reports whether enough set-ups have been timed since begin.
func setupDone(setups []float64, begin time.Time) bool {
	return len(setups) >= minSetups && time.Since(begin) >= setupBudget
}

// baselineFile holds the exact cycle counts the repository gates on; the
// benchmark runs from the checkout root.
const baselineFile = "BENCH_baseline.json"

// sweepPoint is one (program, PEs) point with the exact counts of its
// untimed reference run, which every timed run must repeat.
type sweepPoint struct {
	prog           int
	pes            int
	art            *compile.Artifact
	cycles, instrs int64
}

// sweepPhase is what one closed-loop stretch of passes measured.
type sweepPhase struct {
	latMS      []float64 // sim.New + Run of each point run
	passMIPS   []float64 // simulated Minstr per host second, per pass
	newUS      []float64
	loopMS     []float64
	loopByPEs  map[int]time.Duration
	instrByPEs map[int]int64
	ops        int
	elapsed    time.Duration
	heapMB     float64
}

func runSweep(opt options) (*report, error) {
	rep := newReport()
	progs := sweepPrograms()
	baseline, err := loadBaseline(baselineFile)
	if err != nil {
		return nil, err
	}

	// Set-up is the system's own work before the first simulation:
	// compiling the eight programs.
	var setups []float64
	var arts []*compile.Artifact
	for begin := time.Now(); !setupDone(setups, begin); {
		start := time.Now()
		arts = make([]*compile.Artifact, len(progs))
		for i, p := range progs {
			if arts[i], err = compile.Compile(p.wl.Source, compile.Options{}); err != nil {
				return nil, fmt.Errorf("compile %s: %w", p.wl.Name, err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.Values["setup_s"] = median(setups)

	// The reference run of every point checks it against its Go
	// reference and, where the repository gates the point, against
	// BENCH_baseline.json.
	params := sim.DefaultParams()
	var points []*sweepPoint
	var cycles []float64
	var counts modelCounts
	for i, p := range progs {
		for _, pes := range sweepPEs {
			rep.Attempted++
			res, err := sim.Run(arts[i].Object, pes, params)
			if err != nil {
				return nil, fmt.Errorf("%s at %d PEs: %w", p.wl.Name, pes, err)
			}
			if err := p.wl.Check(arts[i], res.Data); err != nil {
				rep.fail("%s at %d PEs: %v", p.wl.Name, pes, err)
			}
			key := fmt.Sprintf("%s/pes-%d", p.baseline, pes)
			if want, ok := baseline[key]; ok && want != res.Cycles {
				rep.fail("%s: %d cycles, %s has %d", key, res.Cycles, baselineFile, want)
			}
			points = append(points, &sweepPoint{prog: i, pes: pes, art: arts[i],
				cycles: res.Cycles, instrs: res.Instructions})
			cycles = append(cycles, float64(res.Cycles))
			counts.add(res)
		}
	}
	rep.Values["sim_cycles"] = geomean(cycles)

	rng := rand.New(rand.NewPCG(uint64(opt.seed), 0x5eed))
	check := func(pt *sweepPoint, res *sim.Result) {
		p := progs[pt.prog]
		if res.Cycles != pt.cycles || res.Instructions != pt.instrs {
			rep.fail("%s at %d PEs: %d cycles %d instructions, reference %d and %d",
				p.wl.Name, pt.pes, res.Cycles, res.Instructions, pt.cycles, pt.instrs)
		} else if err := p.wl.Check(pt.art, res.Data); err != nil {
			rep.fail("%s at %d PEs: %v", p.wl.Name, pt.pes, err)
		}
	}
	if !opt.traced {
		ph, err := runSweepPhase(points, params, opt.measure, rng, check, nil)
		if err != nil {
			return nil, err
		}
		rep.Attempted += int64(ph.ops)
		ph.putEndToEnd(rep.Values)
		rep.Detail["samples"] = map[string]int{"runs": ph.ops, "passes": len(ph.passMIPS)}
		return rep, nil
	}

	// The traced run: half untraced, half with a span around every call
	// into the simulator; the difference is the tracing overhead.
	untraced, err := runSweepPhase(points, params, opt.measure/2, rng, check, nil)
	if err != nil {
		return nil, err
	}
	log := &spanLog{}
	traced, err := runSweepPhase(points, params, opt.measure/2, rng, check, log)
	if err != nil {
		return nil, err
	}
	rep.Attempted += int64(untraced.ops + traced.ops)
	u, t := map[string]float64{}, map[string]float64{}
	untraced.putEndToEnd(u)
	traced.putEndToEnd(t)
	rep.Detail["untraced"], rep.Detail["traced"] = u, t
	rep.Detail["samples"] = map[string]int{"untraced_runs": untraced.ops, "traced_runs": traced.ops}
	v := map[string]float64{}
	putOverhead(v, u, t)

	srcs := make([]string, len(progs))
	for i, p := range progs {
		srcs[i] = p.wl.Source
	}
	var objs []*isa.Object
	if v["occam.parse_ms"], v["compile.back_ms"], objs, err = frontEnd(srcs, 3); err != nil {
		return nil, err
	}
	instrs, graphs, err := codeSize(objs)
	if err != nil {
		return nil, err
	}
	v["compile.object_instrs"], v["compile.graphs"] = float64(instrs), float64(graphs)
	if v["pe.load_us"], err = loadTimes(objs, 5); err != nil {
		return nil, err
	}
	v["sim.new_us"] = median(traced.newUS)
	v["sim.loop_ms"] = median(traced.loopMS)
	for _, pes := range []int{1, 64} {
		v[fmt.Sprintf("sim.ns_per_instr.%dpe", pes)] =
			float64(traced.loopByPEs[pes].Nanoseconds()) / float64(traced.instrByPEs[pes])
	}
	counts.put(v)
	noServing(v)
	v["unexplained_ms"] = t["run_p50_ms"] - (v["sim.new_us"]/1000 + v["sim.loop_ms"])
	rep.Detail["spans"] = len(log.spans)
	rep.Values = v
	rep.Spans = log.spans
	return rep, nil
}

// runSweepPhase simulates every point once per pass, in a seeded order,
// from one goroutine, until d has elapsed. With a span log it records a
// span per pass, per point, and per sim.New and Run call.
func runSweepPhase(points []*sweepPoint, params sim.Params, d time.Duration, rng *rand.Rand,
	check func(*sweepPoint, *sim.Result), log *spanLog) (*sweepPhase, error) {
	ph := &sweepPhase{loopByPEs: map[int]time.Duration{}, instrByPEs: map[int]int64{}}
	heap := startHeapSampler()
	start := time.Now()
	for time.Since(start) < d {
		var trace xtrace.TraceID
		var pass xtrace.SpanID
		passStart := time.Now()
		if log != nil {
			trace, pass = xtrace.NewTraceID(), xtrace.NewSpanID()
		}
		var busy time.Duration
		var instrs int64
		for _, i := range rng.Perm(len(points)) {
			pt := points[i]
			t0 := time.Now()
			st, err := timeSim(pt.art.Object, pt.pes, params)
			if err != nil {
				heap.peakMB()
				return nil, fmt.Errorf("point %d at %d PEs: %w", pt.prog, pt.pes, err)
			}
			if log != nil {
				parent := log.add(trace, "", pass, "sweep.point", t0, st.new+st.loop,
					map[string]string{"program": strconv.Itoa(pt.prog), "pes": strconv.Itoa(pt.pes)})
				log.add(trace, "", parent, "sim.new", t0, st.new, nil)
				log.add(trace, "", parent, "sim.run", t0.Add(st.new), st.loop, nil)
			}
			check(pt, st.res)
			lat := st.new + st.loop
			busy += lat
			instrs += st.res.Instructions
			ph.latMS = append(ph.latMS, ms(lat))
			ph.newUS = append(ph.newUS, us(st.new))
			ph.loopMS = append(ph.loopMS, ms(st.loop))
			ph.loopByPEs[pt.pes] += st.loop
			ph.instrByPEs[pt.pes] += st.res.Instructions
			ph.ops++
		}
		if log != nil {
			log.add(trace, pass, "", "sweep.pass", passStart, time.Since(passStart), nil)
		}
		ph.passMIPS = append(ph.passMIPS, float64(instrs)/busy.Seconds()/1e6)
	}
	ph.elapsed = time.Since(start)
	ph.heapMB = heap.peakMB()
	return ph, nil
}

func (ph *sweepPhase) putEndToEnd(v map[string]float64) {
	v["sim_minstr_per_s"] = median(ph.passMIPS)
	v["run_p50_ms"] = quantile(ph.latMS, 0.50)
	v["run_p99_ms"] = quantile(ph.latMS, 0.99)
	v["sat_rps"] = float64(ph.ops) / ph.elapsed.Seconds()
	v["heap_peak_mb"] = ph.heapMB
}

// putOverhead records the traced run's end-to-end figures minus the
// untraced ones.
func putOverhead(v, untraced, traced map[string]float64) {
	v["trace.overhead_p50_ms"] = traced["run_p50_ms"] - untraced["run_p50_ms"]
	v["trace.overhead_p99_ms"] = traced["run_p99_ms"] - untraced["run_p99_ms"]
	v["trace.overhead_sat_rps"] = traced["sat_rps"] - untraced["sat_rps"]
}

// loadBaseline reads the exact simulated-cycle gate of the repository.
func loadBaseline(path string) (map[string]int64, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read cycle baseline: %w", err)
	}
	var doc struct {
		Benchmarks map[string]int64 `json:"benchmarks"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return doc.Benchmarks, nil
}
