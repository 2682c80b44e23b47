// Package ring models the multiprocessor interconnect of §5.6: a shared,
// segmented (partitioned) bus configured in a ring topology (Figure 5.18).
// Each partition of processing elements shares one bus segment; adjacent
// partitions are joined by ring links. A message from one processing
// element to another occupies, in sequence, the source partition's bus, the
// ring links between the partitions (taking the shorter direction), and the
// destination partition's bus. Every segment and link is a serially shared
// resource: transfers queue behind one another, which models bus contention
// deterministically.
package ring

import (
	"fmt"

	"queuemachine/internal/trace"
)

// Params sets the interconnect timing.
type Params struct {
	// BusCycles is the occupancy of one partition bus per message.
	BusCycles int64
	// LinkCycles is the occupancy of one inter-partition ring link.
	LinkCycles int64
}

// DefaultParams matches the Chapter 6 simulations: the partitioned bus
// moves one word-sized message per cycle per segment (the partitioning
// exists precisely to multiply this bandwidth).
func DefaultParams() Params { return Params{BusCycles: 1, LinkCycles: 1} }

// Stats aggregates interconnect behaviour.
type Stats struct {
	Messages   int64
	LocalMsgs  int64 // messages within one partition
	HopsTotal  int64 // ring links traversed
	WaitCycles int64 // cycles spent queued behind other transfers
}

// Ring is the interconnect state.
type Ring struct {
	numPEs     int
	partitions int
	perPart    int
	params     Params
	busFree    []int64 // next free time per partition bus
	linkFree   []int64 // next free time per ring link i -> (i+1) mod n
	rec        trace.Recorder
	Stats      Stats
}

// SetRecorder installs the instrumentation recorder (nil disables). The
// recorder observes transfers; it never alters their timing.
func (r *Ring) SetRecorder(rec trace.Recorder) { r.rec = rec }

// New builds a ring of the given number of processing elements divided into
// the given number of partitions. The PE count must divide evenly; one
// partition degenerates to a single shared bus.
func New(numPEs, partitions int, params Params) (*Ring, error) {
	if numPEs < 1 {
		return nil, fmt.Errorf("ring: need at least one processing element")
	}
	if partitions < 1 || partitions > numPEs || numPEs%partitions != 0 {
		return nil, fmt.Errorf("ring: %d PEs cannot form %d equal partitions", numPEs, partitions)
	}
	return &Ring{
		numPEs:     numPEs,
		partitions: partitions,
		perPart:    numPEs / partitions,
		params:     params,
		busFree:    make([]int64, partitions),
		linkFree:   make([]int64, partitions),
	}, nil
}

// Partition reports the partition hosting a processing element.
func (r *Ring) Partition(peID int) int { return peID / r.perPart }

// Hops reports the number of ring links between two processing elements'
// partitions along the shorter direction.
func (r *Ring) Hops(from, to int) int {
	a, b := r.Partition(from), r.Partition(to)
	d := a - b
	if d < 0 {
		d = -d
	}
	if alt := r.partitions - d; alt < d {
		d = alt
	}
	return d
}

// Transfer routes one message from PE `from` to PE `to`, starting no
// earlier than `now`, and returns its arrival time. Resources along the
// path are occupied in sequence; the call mutates the ring's resource
// clocks, so transfers must be issued in simulation-time order.
func (r *Ring) Transfer(now int64, from, to int) int64 {
	r.Stats.Messages++
	if from == to {
		// Intraprocessor: handled by the local message processor
		// without touching the interconnect.
		return now
	}
	t := now
	var waited int64
	a, b := r.Partition(from), r.Partition(to)
	acquire := func(free *int64, occupancy int64) {
		if *free > t {
			waited += *free - t
			t = *free
		}
		t += occupancy
		*free = t
	}
	acquire(&r.busFree[a], r.params.BusCycles)
	if a != b {
		// Choose the shorter ring direction (ties clockwise).
		d := b - a
		if d < 0 {
			d += r.partitions
		}
		step := 1
		if d > r.partitions-d {
			step = -1
		}
		hops := min(d, r.partitions-d)
		// Walk the links from a: link i joins partitions i and i+1.
		part := a
		for h := 0; h < hops; h++ {
			var link int
			if step > 0 {
				link = part
				if part++; part == r.partitions {
					part = 0
				}
			} else {
				if part--; part < 0 {
					part = r.partitions - 1
				}
				link = part
			}
			acquire(&r.linkFree[link], r.params.LinkCycles)
		}
		r.Stats.HopsTotal += int64(hops)
		acquire(&r.busFree[b], r.params.BusCycles)
	} else {
		r.Stats.LocalMsgs++
	}
	r.Stats.WaitCycles += waited
	if r.rec != nil {
		r.rec.RingTransfer(from, to, now, t, waited)
	}
	return t
}

// FixedLatency reports the contention-free transfer latency between two
// processing elements — used for the closed-form remote-memory cost model.
func (r *Ring) FixedLatency(from, to int) int64 {
	if from == to {
		return 0
	}
	lat := r.params.BusCycles
	if hops := r.Hops(from, to); hops > 0 {
		lat += int64(hops)*r.params.LinkCycles + r.params.BusCycles
	}
	return lat
}

// NumPEs reports the number of processing elements on the ring.
func (r *Ring) NumPEs() int { return r.numPEs }

// Partitions reports the number of bus partitions.
func (r *Ring) Partitions() int { return r.partitions }
