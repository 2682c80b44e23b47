package interp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"queuemachine/internal/compile"
	"queuemachine/internal/occam"
	"queuemachine/internal/sim"
)

// TestDifferentialByteVectors fuzzes byte-vector programs: random
// straight-line and looped byte reads/writes, compared between the
// interpreter and the simulator with byte-level unpacking of the packed
// data segment.
func TestDifferentialByteVectors(t *testing.T) {
	for seed := 0; seed < 25; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		var b strings.Builder
		b.WriteString("var c[byte 8], s0, s1, k:\nseq\n")
		b.WriteString("  s0 := 5\n  s1 := 3\n")
		n := 6 + rng.Intn(8)
		for i := 0; i < n; i++ {
			switch rng.Intn(4) {
			case 0:
				fmt.Fprintf(&b, "  c[byte (%d + s0) /\\ 7] := %d\n", rng.Intn(8), rng.Intn(600)-100)
			case 1:
				fmt.Fprintf(&b, "  s%d := c[byte %d] + s0\n", rng.Intn(2), rng.Intn(8))
			case 2:
				fmt.Fprintf(&b, "  c[byte %d] := (s0 * s1) + %d\n", rng.Intn(8), rng.Intn(50))
			default:
				fmt.Fprintf(&b, "  k := 0\n  while k < 2\n    seq\n      c[byte (k + %d) /\\ 7] := c[byte k] + 1\n      k := k + 1\n", rng.Intn(8))
			}
		}
		b.WriteString("  c[byte 7] := s0 + s1\n")
		src := b.String()

		prog, err := occam.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		ref, err := Run(prog)
		if err != nil {
			t.Fatalf("seed %d: interp: %v\n%s", seed, err, src)
		}
		want, err := ref.VectorByName("c")
		if err != nil {
			t.Fatal(err)
		}
		art, err := compile.Compile(src, compile.Options{})
		if err != nil {
			t.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
		}
		res, err := sim.Run(art.Object, 2, sim.DefaultParams())
		if err != nil {
			t.Fatalf("seed %d: sim: %v\n%s", seed, err, src)
		}
		base, err := art.VectorBase("c")
		if err != nil {
			t.Fatal(err)
		}
		for i, wv := range want {
			word := res.Data[int(base)/4+i/4]
			got := int32(uint32(word) >> (8 * (i % 4)) & 0xff)
			if got != wv {
				t.Fatalf("seed %d: c[%d] sim=%d interp=%d\n%s", seed, i, got, wv, src)
			}
		}
	}
}
