// Occam2dfg walks one OCCAM program through every stage of the Chapter 4
// compiler: the Intermediate Form Table with its live-value tags, the
// spliced context data-flow graphs with the π_I transfer orders, and the
// generated indexed-queue-machine assembly.
//
// Run with: go run ./examples/occam2dfg
package main

import (
	"fmt"
	"log"
	"strings"

	"queuemachine/internal/compile"
	"queuemachine/internal/ift"
)

const src = `var v[1], x, y:
chan c:
seq
  x := 3
  par
    c ! x * x
    c ? y
  if
    y > 5
      y := y + 100
    y <= 5
      skip
  v[0] := y
`

func main() {
	fmt.Println("source:")
	fmt.Print(src)
	art, err := compile.Compile(src, compile.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== intermediate form table (I, O, live outputs) ===")
	for _, e := range art.Table.Entries {
		if e.Kind == ift.KMain {
			continue
		}
		fmt.Printf("%-3d %-10v I=%v O=%v live=%v\n",
			e.Index, e.Kind, e.Inputs(), e.Outputs(), e.LiveOutputs())
	}

	fmt.Println("\n=== context graphs and splice protocols ===")
	for _, info := range art.Graphs {
		fmt.Printf("graph %-12s receives %v, returns %v, %d nodes\n",
			info.Name, info.Ins, info.Outs, len(info.Order))
	}

	fmt.Println("\n=== generated queue machine assembly ===")
	fmt.Println(strings.TrimSpace(art.Assembly()))
}
