package sim

import (
	"testing"

	"queuemachine/internal/compile"
	"queuemachine/internal/workloads"
)

// TestSixtyFourPECounts gates the eight exact-gated programs at 64
// processing elements, the size the benchmark sweep runs beyond
// BENCH_baseline.json's 1–8. At 64 PEs most rendezvous are remote and
// placement spreads contexts across 32 ring partitions, so these points
// exercise the ring and message-processor timing that small machines
// barely reach. The counts are exact: any change in simulated behaviour
// moves at least one of them.
func TestSixtyFourPECounts(t *testing.T) {
	for _, tc := range []struct {
		wl             workloads.Workload
		cycles, instrs int64
	}{
		{workloads.MatMul(8), 61706, 44191},
		{workloads.FFT(6), 32542, 35808},
		{workloads.Cholesky(8), 28468, 11508},
		{workloads.Congruence(8), 117172, 83211},
		{workloads.Bitonic(4), 45899, 29427},
		{workloads.LU(6), 18891, 9170},
		{workloads.Stencil(16, 4), 10420, 7581},
		{workloads.Chain(24), 10430, 4810},
	} {
		art, err := compile.Compile(tc.wl.Source, compile.Options{})
		if err != nil {
			t.Fatalf("%s: Compile: %v", tc.wl.Name, err)
		}
		res, err := Run(art.Object, 64, DefaultParams())
		if err != nil {
			t.Fatalf("%s: Run: %v", tc.wl.Name, err)
		}
		if res.Cycles != tc.cycles || res.Instructions != tc.instrs {
			t.Errorf("%s at 64 PEs: %d cycles / %d instructions, want %d / %d",
				tc.wl.Name, res.Cycles, res.Instructions, tc.cycles, tc.instrs)
		}
		if tc.wl.Check != nil {
			if err := tc.wl.Check(art, res.Data); err != nil {
				t.Errorf("%s at 64 PEs: wrong result: %v", tc.wl.Name, err)
			}
		}
	}
}
