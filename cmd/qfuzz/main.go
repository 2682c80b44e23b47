// qfuzz drives the end-to-end differential fuzzer: random whole OCCAM
// programs (internal/occamgen) run through the reference interpreter and
// through the compiler→simulator pipeline under every optimization
// configuration and several machine sizes, requiring bit-identical vector
// contents everywhere.
//
//	qfuzz -n 500              # seeds 0..499
//	qfuzz -seed 44 -n 1       # reproduce one seed
//	qfuzz -n 200 -start 1000  # a different seed window
//
// On divergence it prints the failing stage, a reproduction line, and a
// shrunken minimal program, then exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"queuemachine/internal/occamgen"
)

func main() {
	n := flag.Int("n", 200, "number of seeds to run")
	start := flag.Int64("start", 0, "first seed")
	seed := flag.Int64("seed", -1, "run this single seed (overrides -start)")
	budget := flag.Int("budget", 0, "statement budget per program (0: default)")
	noShrink := flag.Bool("no-shrink", false, "report failures without minimizing")
	maxFail := flag.Int("max-failures", 1, "stop after this many divergences")
	quiet := flag.Bool("quiet", false, "suppress the progress line")
	flag.Parse()

	cfg := occamgen.DefaultConfig()
	if *budget > 0 {
		cfg.Budget = *budget
	}
	first := *start
	if *seed >= 0 {
		first = *seed
		*n = 1
	}

	t0 := time.Now()
	failures := 0
	for s := first; s < first+int64(*n); s++ {
		f := check(s, cfg, *noShrink)
		if f != nil {
			fmt.Print(f.Error())
			failures++
			if failures >= *maxFail {
				break
			}
		}
		if !*quiet && (s-first+1)%100 == 0 {
			fmt.Fprintf(os.Stderr, "qfuzz: %d/%d seeds, %d divergences, %.1fs\n",
				s-first+1, *n, failures, time.Since(t0).Seconds())
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "qfuzz: %d divergence(s) in %d seeds\n", failures, *n)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "qfuzz: %d seeds clean in %.1fs\n", *n, time.Since(t0).Seconds())
	}
}

func check(seed int64, cfg occamgen.Config, noShrink bool) *occamgen.Failure {
	if noShrink {
		src := occamgen.GenerateSeed(seed, cfg)
		f := occamgen.CheckProgram(src)
		if f != nil {
			f.Seed, f.Config = seed, cfg
		}
		return f
	}
	return occamgen.CheckSeed(seed, cfg)
}
