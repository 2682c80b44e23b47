// Command occ is the OCCAM compiler driver (the thesis's scanparse →
// semantic → dataflow → grapher → sequencer → coder pipeline).
//
// Usage:
//
//	occ prog.occ                  compile, write prog.qobj (JSON object file)
//	occ -S prog.occ               print the generated assembly
//	occ -dump-ift prog.occ        print the Intermediate Form Table
//	occ -dump-dfg prog.occ        print every context graph
//	occ -run 4 prog.occ           compile and execute on 4 processing elements
//	occ -no-input-order ...       disable individual optimizations
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"queuemachine/internal/compile"
	"queuemachine/internal/ift"
	"queuemachine/internal/sim"
)

func main() {
	var (
		printAsm = flag.Bool("S", false, "print generated assembly")
		dumpIFT  = flag.Bool("dump-ift", false, "print the intermediate form table")
		dumpDFG  = flag.Bool("dump-dfg", false, "print the context data-flow graphs")
		runPEs   = flag.Int("run", 0, "execute on this many processing elements")
		outFile  = flag.String("o", "", "object file output path (default: input with .qobj)")
		opts     compile.Options
	)
	flag.BoolVar(&opts.NoInputOrder, "no-input-order", false, "disable pi_I input ordering")
	flag.BoolVar(&opts.NoLiveFilter, "no-live-filter", false, "disable live-value filtering")
	flag.BoolVar(&opts.NoPriority, "no-priority", false, "disable priority sequencing")
	flag.BoolVar(&opts.NoConstFold, "no-const-fold", false, "disable constant folding and immediates")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: occ [flags] program.occ")
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	art, err := compile.Compile(string(src), opts)
	if err != nil {
		fatal(err)
	}

	switch {
	case *dumpIFT:
		fmt.Printf("%-4s %-10s %-26s %-26s %s\n", "idx", "type", "I", "O", "E")
		for _, e := range art.Table.Entries {
			if e.Kind == ift.KMain {
				continue
			}
			fmt.Printf("%-4d %-10v %-26v %-26v %v\n", e.Index, e.Kind, e.Inputs(), e.Outputs(), e.E)
		}
	case *dumpDFG:
		for _, info := range art.Graphs {
			fmt.Printf("graph %s  ins=%v outs=%v\n", info.Name, info.Ins, info.Outs)
			for i, n := range info.Order {
				var args []string
				for _, e := range n.Args {
					args = append(args, e.From.String())
				}
				var order []string
				for _, p := range n.Order {
					order = append(order, p.String())
				}
				line := fmt.Sprintf("  %3d: %s(%s)", i, n.String(), strings.Join(args, ", "))
				if len(order) > 0 {
					line += " after{" + strings.Join(order, ", ") + "}"
				}
				fmt.Println(line)
			}
		}
	case *printAsm:
		fmt.Print(art.Assembly())
	case *runPEs > 0:
		res, err := sim.Run(art.Object, *runPEs, sim.DefaultParams())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("cycles       %d\n", res.Cycles)
		fmt.Printf("instructions %d\n", res.Instructions)
		fmt.Printf("contexts     %d\n", res.Kernel.ContextsCreated)
		fmt.Printf("utilization  %.2f\n", res.Utilization())
		fmt.Printf("data segment (%d words):\n", len(res.Data))
		for i, v := range res.Data {
			if v != 0 {
				fmt.Printf("  [%d] = %d\n", i, v)
			}
		}
	default:
		out := *outFile
		if out == "" {
			out = strings.TrimSuffix(path, ".occ") + ".qobj"
		}
		blob, err := json.MarshalIndent(art.Object, "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(out, blob, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d graphs, %d data words)\n", out, len(art.Object.Graphs), art.Object.DataWords)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "occ: %v\n", err)
	os.Exit(1)
}
