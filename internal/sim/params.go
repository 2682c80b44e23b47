// Package sim is the queue machine multiprocessor simulator of Chapter 6: a
// deterministic discrete-event simulation of N queue-machine processing
// elements, each with a message processor and channel cache, joined by a
// partitioned ring bus and managed by the multiprocessing kernel. It
// executes object programs produced by the OCCAM compiler (or the
// assembler) and reports the run statistics of Tables 6.2–6.5.
package sim

import (
	"fmt"
	"runtime"

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
	// HostParallel selects the host-parallel execution engine and its
	// worker-goroutine count. 0 (the default) keeps the sequential engine
	// unchanged; a positive count shards the processing elements across
	// that many workers along ring-partition boundaries (a ConfigError if
	// the count exceeds the partition count); a negative value selects
	// min(partitions, GOMAXPROCS) automatically. Simulated results are
	// bit-identical to the sequential engine at every worker count — the
	// sequential engine is the differential oracle, exactly like NoBatch.
	HostParallel int
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
// at 8 processing elements; the host-parallel engine makes 64–256-element
// scaling sweeps affordable, and the cap leaves generous headroom beyond
// them while still rejecting nonsense sizes with a structured error before
// any per-element allocation happens.
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

// PartitionCount reports the ring partition count a machine of numPEs
// elements runs with under p: the explicit Partitions value, or the Figure
// 5.18 default when it is zero. It is the upper bound on HostParallel
// worker counts.
func (p Params) PartitionCount(numPEs int) int {
	if p.Partitions != 0 {
		return p.Partitions
	}
	return defaultPartitions(numPEs)
}

// HostWorkers resolves the effective host-parallel worker count for a
// machine of numPEs elements: 0 keeps the sequential engine; a negative
// value selects min(partitions, GOMAXPROCS); a positive value is validated
// against the partition count (a worker owns whole ring partitions, so
// workers beyond the partition count could never receive a shard).
func (p Params) HostWorkers(numPEs int) (int, error) {
	if p.HostParallel == 0 {
		return 0, nil
	}
	parts := p.PartitionCount(numPEs)
	if p.HostParallel < 0 {
		return min(parts, runtime.GOMAXPROCS(0)), nil
	}
	if p.HostParallel > parts {
		return 0, &ConfigError{Field: "HostParallel", Reason: fmt.Sprintf(
			"%d workers exceed the %d ring partitions of a %d-element machine (workers own whole partitions)",
			p.HostParallel, parts, numPEs)}
	}
	return p.HostParallel, nil
}
