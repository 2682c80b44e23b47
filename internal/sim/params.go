// Package sim is the queue machine multiprocessor simulator of Chapter 6: a
// deterministic discrete-event simulation of N queue-machine processing
// elements, each with a message processor and channel cache, joined by a
// partitioned ring bus and managed by the multiprocessing kernel. It
// executes object programs produced by the OCCAM compiler (or the
// assembler) and reports the run statistics of Tables 6.2–6.5.
package sim

import (
	"queuemachine/internal/pe"
	"queuemachine/internal/ring"
	"queuemachine/internal/sched"
)

// Params collects every architectural timing constant of the simulated
// system. The defaults model the thesis's three-stage-pipeline processing
// element with a lean software kernel and dedicated message processors.
type Params struct {
	PE   pe.Params
	Ring ring.Params
	// Partitions is the number of ring bus partitions; 0 selects the
	// largest legal count with two processing elements per partition
	// (the Figure 5.18 configuration).
	Partitions int
	// Scheduler selects the kernel scheduling policy (context placement on
	// fork, ready-queue ordering on dispatch). The zero value is the
	// thesis baseline: least-loaded placement with per-element FIFO
	// dispatch. Per-run configuration — there is no process-global
	// scheduling state, so concurrent runs with different policies never
	// interfere.
	Scheduler sched.Config
	// MsgCacheEntries is the per-message-processor channel cache size.
	MsgCacheEntries int
	// MPCycles is the message processor's base cost per operation.
	MPCycles int64
	// MPMissPenalty is the extra cost when the channel entry must be
	// reloaded from (or spilled to) memory.
	MPMissPenalty int64
	// ForkCycles is the kernel's context-creation service time beyond
	// the trap overhead.
	ForkCycles int64
	// Resume is the cost of resuming the context whose window registers
	// are still loaded (no roll-out was needed).
	Resume int64
	// StoreBroadcast is the extra cost of a data-memory write: the data
	// segment is replicated in every processing element's local memory
	// under the multiple-readers/single-writer discipline (§4.6), so
	// reads are local and writes update every copy over the bus.
	StoreBroadcast int64
	// MaxCycles and MaxInstructions bound runaway simulations.
	MaxCycles       int64
	MaxInstructions int64
	// KeepData copies the final data segment into Result.Data. On by
	// default (tests and examples verify computed results against it);
	// services that never read the segment turn it off to skip an
	// O(DataWords) copy per request.
	KeepData bool
	// NoBatch disables straight-line step batching, forcing the event loop
	// back to one queue round-trip per instruction. Results are identical
	// either way — the flag exists purely as the differential-testing
	// oracle for the batching equivalence property test and as a
	// diagnostic escape hatch; it is never faster.
	NoBatch bool
}

// DefaultParams is the configuration used for all Chapter 6 experiments.
func DefaultParams() Params {
	return Params{
		PE:              pe.DefaultParams(),
		Ring:            ring.DefaultParams(),
		MsgCacheEntries: 64,
		MPCycles:        3,
		MPMissPenalty:   8,
		ForkCycles:      20,
		Resume:          2,
		StoreBroadcast:  2,
		MaxCycles:       2_000_000_000,
		MaxInstructions: 500_000_000,
		KeepData:        true,
	}
}

// MaxPEs bounds the simulated machine size. The Chapter 6 experiments stop
// at 8 processing elements and the scheduler sweeps at 64; the cap leaves
// generous headroom beyond them while rejecting nonsense sizes with a
// structured error before any per-element allocation happens. It is the
// single definition of the bound: qmd's default request limit is this
// constant too.
const MaxPEs = 1024

// defaultPartitions picks the Figure 5.18 layout: two processing elements
// per partition where the count divides evenly, otherwise the largest
// divisor that keeps at least two per partition (a single shared bus for
// small or prime machine sizes).
func defaultPartitions(numPEs int) int {
	if numPEs < 4 {
		return 1
	}
	for p := numPEs / 2; p > 1; p-- {
		if numPEs%p == 0 {
			return p
		}
	}
	return 1
}
