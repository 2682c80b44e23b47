// Command qsim executes a JSON object file on the simulated queue machine
// multiprocessor and reports the run statistics of the Chapter 6 tables.
//
// Usage:
//
//	qsim -pes 4 prog.qobj
//	qsim -pes 8 -sched steal prog.qobj    run under a scheduling policy
//	                                      (fifo, locality, steal, critpath)
//	qsim -pes 8 -dump prog.qobj           also dump the final data segment
//	qsim -pes 4 -json prog.qobj           emit statistics as JSON (the qmd wire format)
//	qsim -pes 4 -trace run.json prog.qobj write a Chrome trace-event file
//	qsim -pes 4 -timeline 1000 prog.qobj  sample machine gauges every 1000 cycles
//	qsim -pes 4 -profile run.pb.gz prog.qobj
//	                                      attribute every cycle to a cause, print
//	                                      the critical-path summary, and write a
//	                                      pprof profile (load with go tool pprof)
//
// Exit status: 0 on success, 1 on error, 2 on usage, and 3 when the
// simulated program deadlocks (the kernel's context snapshot goes to
// stderr, so scripts and CI can detect hangs without parsing stdout).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"queuemachine/internal/isa"
	"queuemachine/internal/profile"
	"queuemachine/internal/sched"
	"queuemachine/internal/service"
	"queuemachine/internal/sim"
	"queuemachine/internal/trace"
)

func main() {
	var (
		pes       = flag.Int("pes", 1, "number of processing elements")
		schedName = flag.String("sched", "",
			"kernel scheduling policy: fifo (default), locality, steal, critpath")
		dump     = flag.Bool("dump", false, "dump the final data segment")
		jsonOut  = flag.Bool("json", false, "emit run statistics as JSON")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON file (load in chrome://tracing)")
		timeline = flag.Int64("timeline", 0, "sample a machine time series every N cycles (0: off)")
		profOut  = flag.String("profile", "", "write a pprof cycle-attribution profile (load with go tool pprof)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: qsim [-pes N] [-dump] [-json] [-trace out.json] [-timeline N] [-profile out.pb.gz] program.qobj")
		os.Exit(2)
	}
	blob, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	var obj isa.Object
	if err := json.Unmarshal(blob, &obj); err != nil {
		fatal(err)
	}

	params := sim.DefaultParams()
	params.Scheduler = sched.Config{Policy: *schedName}
	if !sched.Valid(*schedName) {
		fmt.Fprintf(os.Stderr, "qsim: unknown scheduler %q (valid: %s)\n",
			*schedName, strings.Join(sched.Names(), ", "))
		os.Exit(2)
	}
	sys, err := sim.New(&obj, *pes, params)
	if err != nil {
		fatal(err)
	}
	var (
		chrome   *trace.Chrome
		series   *trace.Timeline
		profiler *profile.Profiler
		recs     []trace.Recorder
	)
	if *traceOut != "" {
		chrome = trace.NewChrome(*timeline)
		recs = append(recs, chrome)
	}
	if *timeline > 0 {
		series = trace.NewTimeline(*timeline)
		recs = append(recs, series)
	}
	if *profOut != "" {
		profiler = profile.New(*pes)
		names := make([]string, len(obj.Graphs))
		for i, g := range obj.Graphs {
			names[i] = g.Name
		}
		profiler.SetGraphNames(names)
		recs = append(recs, profiler)
	}
	sys.SetRecorder(trace.Multi(recs...))

	start := time.Now()
	res, err := sys.Run()
	hostTime := time.Since(start)
	if err != nil {
		var dl *sim.DeadlockError
		if errors.As(err, &dl) {
			fmt.Fprintf(os.Stderr, "qsim: %v\n", dl)
			os.Exit(3)
		}
		fatal(err)
	}
	if chrome != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := chrome.Write(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	var prof *profile.Profile
	if profiler != nil {
		prof = profiler.Finalize(res.Cycles)
		f, err := os.Create(*profOut)
		if err != nil {
			fatal(err)
		}
		if err := prof.WritePprof(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	stats := service.NewRunStats(res, *dump)
	stats.Scheduler = params.Scheduler.Name()
	stats.SetHostTime(hostTime)
	if series != nil {
		stats.Timeline = series.Series()
	}
	stats.Profile = prof
	if *jsonOut {
		// The same document the qmd service serves from /run.
		out, err := json.MarshalIndent(stats, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", out)
		return
	}
	fmt.Printf("processing elements  %d\n", res.NumPEs)
	fmt.Printf("scheduler            %s (%d migrations, %d steals)\n",
		params.Scheduler.Name(), res.Kernel.Migrations, res.Kernel.Steals)
	fmt.Printf("cycles               %d\n", res.Cycles)
	fmt.Printf("instructions         %d\n", res.Instructions)
	fmt.Printf("utilization          %.3f\n", res.Utilization())
	fmt.Printf("contexts created     %d (rfork %d, ifork %d)\n",
		res.Kernel.ContextsCreated, res.Kernel.RForks, res.Kernel.IForks)
	fmt.Printf("context switches     %d (+%d resumes, %d registers rolled out)\n",
		res.Switches, res.Resumes, res.RolledRegisters)
	fmt.Printf("channel rendezvous   %d (cache hits %d, misses %d, evictions %d)\n",
		res.Cache.Rendezvous, res.Cache.Hits, res.Cache.Misses, res.Cache.Evictions)
	fmt.Printf("ring messages        %d (%d wait cycles)\n", res.Ring.Messages, res.Ring.WaitCycles)
	fmt.Printf("memory traffic       %d reads, %d writes\n", res.MemReads, res.MemWrites)
	fmt.Printf("avg queue length     %.2f words\n", res.AvgQueueLength())
	fmt.Printf("host time            %.3fs (%.2f MIPS simulated)\n",
		stats.HostSeconds, stats.HostMIPS)
	if series != nil {
		printTimeline(series.Series())
	}
	if prof != nil {
		prof.WriteSummary(os.Stdout)
		fmt.Printf("profile written to %s (go tool pprof %s)\n", *profOut, *profOut)
	}
	if *dump {
		fmt.Printf("data segment (%d words):\n", len(res.Data))
		for i, v := range res.Data {
			if v != 0 {
				fmt.Printf("  [%d] = %d\n", i, v)
			}
		}
	}
}

func printTimeline(s *trace.Series) {
	fmt.Printf("timeline (bucket %d cycles):\n", s.BucketCycles)
	fmt.Printf("  %10s %6s %5s %6s %8s %7s %9s\n",
		"cycle", "util", "live", "ready", "instr", "q-len", "cache-hit")
	for _, b := range s.Buckets {
		fmt.Printf("  %10d %6.3f %5d %6d %8d %7.2f %9.3f\n",
			b.EndCycle, b.Utilization, b.LiveContexts, b.ReadyContexts,
			b.Instructions, b.AvgQueueLength, b.CacheHitRate)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "qsim: %v\n", err)
	os.Exit(1)
}
