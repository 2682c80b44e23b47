package service

import (
	"time"

	"queuemachine/internal/profile"
	"queuemachine/internal/sim"
	"queuemachine/internal/trace"
	"queuemachine/internal/xtrace"
)

// RunStats is the machine-readable view of one simulation run, shared by
// the /run endpoint and qsim's -json output so both emit identical
// documents.
type RunStats struct {
	Cycles          int64   `json:"cycles"`
	PEs             int     `json:"pes"`
	Instructions    int64   `json:"instructions"`
	Utilization     float64 `json:"utilization"`
	AvgQueueLength  float64 `json:"avg_queue_length"`
	ContextsCreated int64   `json:"contexts_created"`
	RForks          int64   `json:"rforks"`
	IForks          int64   `json:"iforks"`
	// Scheduler is the scheduling policy the run executed under (the
	// resolved name: empty request fields report "fifo"). Migrations
	// counts contexts placed on a processing element other than their
	// parent's; Steals counts contexts re-homed by a work-stealing
	// dispatch (zero except under the steal policy).
	Scheduler       string `json:"scheduler,omitempty"`
	Migrations      int64  `json:"migrations"`
	Steals          int64  `json:"steals"`
	Switches        int64  `json:"switches"`
	Resumes         int64  `json:"resumes"`
	RolledRegisters int64  `json:"rolled_registers"`
	Rendezvous      int64  `json:"rendezvous"`
	ChanCacheHits   int64  `json:"chan_cache_hits"`
	ChanCacheMisses int64  `json:"chan_cache_misses"`
	ChanCacheEvicts int64  `json:"chan_cache_evictions"`
	RingMessages    int64  `json:"ring_messages"`
	RingWaitCycles  int64  `json:"ring_wait_cycles"`
	MemReads        int64  `json:"mem_reads"`
	MemWrites       int64  `json:"mem_writes"`
	// HostSeconds and HostMIPS report the wall-clock cost of the run on
	// the host and the simulator's throughput in millions of simulated
	// instructions per host second. Present when the producer timed the
	// run (qsim -json, the /run endpoint); unlike every other field they
	// describe the simulator, not the simulated machine, and vary with
	// host load.
	HostSeconds float64 `json:"host_seconds,omitempty"`
	HostMIPS    float64 `json:"host_mips,omitempty"`
	// Data is the final static data segment, included only on request
	// (it can dwarf the statistics).
	Data []int32 `json:"data,omitempty"`
	// Timeline is the cycle-sampled time series, present only when the run
	// was collected with one (qsim -timeline).
	Timeline *trace.Series `json:"timeline,omitempty"`
	// Profile is the cycle-attribution account and critical path, present
	// only when the run was profiled (qsim -profile, /run profile=true).
	Profile *profile.Profile `json:"profile,omitempty"`
}

// SetHostTime records the run's wall-clock duration and derives the
// host-throughput figure from the instruction count.
func (rs *RunStats) SetHostTime(d time.Duration) {
	rs.HostSeconds = d.Seconds()
	if rs.HostSeconds > 0 {
		rs.HostMIPS = float64(rs.Instructions) / rs.HostSeconds / 1e6
	}
}

// NewRunStats projects a sim.Result into its serving form. The data
// segment rides along only when includeData is set.
func NewRunStats(res *sim.Result, includeData bool) *RunStats {
	rs := &RunStats{
		Cycles:          res.Cycles,
		PEs:             res.NumPEs,
		Instructions:    res.Instructions,
		Utilization:     res.Utilization(),
		AvgQueueLength:  res.AvgQueueLength(),
		ContextsCreated: res.Kernel.ContextsCreated,
		RForks:          res.Kernel.RForks,
		IForks:          res.Kernel.IForks,
		Migrations:      res.Kernel.Migrations,
		Steals:          res.Kernel.Steals,
		Switches:        res.Switches,
		Resumes:         res.Resumes,
		RolledRegisters: res.RolledRegisters,
		Rendezvous:      res.Cache.Rendezvous,
		ChanCacheHits:   res.Cache.Hits,
		ChanCacheMisses: res.Cache.Misses,
		ChanCacheEvicts: res.Cache.Evictions,
		RingMessages:    res.Ring.Messages,
		RingWaitCycles:  res.Ring.WaitCycles,
		MemReads:        res.MemReads,
		MemWrites:       res.MemWrites,
	}
	if includeData {
		rs.Data = res.Data
	}
	return rs
}

// ServiceStats is the /statsz document.
type ServiceStats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`
	Compiles      int64   `json:"compiles"`
	Runs          int64   `json:"runs"`
	Rejected      int64   `json:"rejected"`
	Errors        int64   `json:"errors"`
	Workers       int     `json:"workers"`
	InFlight      int64   `json:"in_flight"`
	Queued        int     `json:"queued"`
	QueueCapacity int     `json:"queue_capacity"`
	// CyclesServed and InstructionsServed total the simulated cycles and
	// instructions of every successful /run.
	CyclesServed       int64 `json:"cycles_served"`
	InstructionsServed int64 `json:"instructions_served"`
	// SimSeconds is the cumulative wall-clock time workers spent inside the
	// simulator, and HostMIPS the service-lifetime average simulator
	// throughput (million simulated instructions per host second).
	SimSeconds float64    `json:"sim_seconds"`
	HostMIPS   float64    `json:"host_mips"`
	Cache      CacheStats `json:"cache"`
	// CoalescedCompiles and CoalescedRuns count requests answered by
	// joining another request's in-flight execution (singleflight). A
	// coalesced follower is never counted as a cache hit or miss — it
	// never consulted the artifact cache. FlightsInFlight is the number of
	// distinct executions currently coalescing.
	CoalescedCompiles int64 `json:"coalesced_compiles"`
	CoalescedRuns     int64 `json:"coalesced_runs"`
	FlightsInFlight   int   `json:"flights_in_flight"`
	// Disk reports the persistent artifact tier, present only when the
	// service was configured with a cache directory.
	Disk *DiskStats `json:"disk_cache,omitempty"`
	// Peer reports the peer-fetch tier, present only when the service is
	// part of a fleet.
	Peer *PeerStats `json:"peer,omitempty"`
	// CycleCauses totals the cycle attribution of every profiled run
	// (profile=true), keyed by cause. Processing-element causes are
	// PE-cycles (they sum to PEs × makespan per run); message-processor and
	// ring causes are those lanes' busy cycles. Empty until a profiled run
	// completes.
	CycleCauses map[string]int64 `json:"cycle_causes,omitempty"`
	// SchedRuns counts successful runs by resolved scheduling policy;
	// SchedMigrations and SchedSteals total those runs' cross-element
	// placements and work-stealing dispatches.
	SchedRuns       map[string]int64 `json:"sched_runs,omitempty"`
	SchedMigrations int64            `json:"sched_migrations"`
	SchedSteals     int64            `json:"sched_steals"`
	// SLOs reports each declared objective's burn state, present only when
	// the service was configured with objectives.
	SLOs []xtrace.SLOStatus `json:"slos,omitempty"`
	// Traces reports the flight recorder behind /debugz/traces.
	Traces xtrace.RecorderStats `json:"traces"`
}

// PeerStats is the /statsz view of the peer artifact tier: this
// replica's identity, the ring membership, and how its outbound peer
// fetches fared (a fetch that errors degrades to a local compile).
type PeerStats struct {
	Self    string   `json:"self"`
	Peers   []string `json:"peers"`
	Fetches int64    `json:"fetches"`
	Hits    int64    `json:"hits"`
	Errors  int64    `json:"errors"`
}

// Stats snapshots the service counters from the handles /metrics reads.
func (s *Service) Stats() ServiceStats {
	return ServiceStats{
		UptimeSeconds:      time.Since(s.start).Seconds(),
		Draining:           s.draining.Load(),
		Compiles:           s.compiles.Load(),
		Runs:               s.runs.Load(),
		Rejected:           s.rejected.Load(),
		Errors:             s.fails.Load(),
		Workers:            s.cfg.Workers,
		InFlight:           s.pool.inFlight.Load(),
		Queued:             s.pool.queued(),
		QueueCapacity:      s.pool.capacity(),
		CyclesServed:       s.cyclesServed.Load(),
		InstructionsServed: s.instrsServed.Load(),
		SimSeconds:         s.simTime().Seconds(),
		HostMIPS:           s.hostMIPS(),
		Cache:              s.cache.stats(),
		CoalescedCompiles:  s.coalescedCompiles.Load(),
		CoalescedRuns:      s.coalescedRuns.Load(),
		FlightsInFlight:    s.flights.inFlight(),
		Disk:               s.diskSnapshot(),
		Peer:               s.peerSnapshot(),
		CycleCauses:        s.causeCycles.Map(),
		SchedRuns:          s.schedRuns.Map(),
		SchedMigrations:    s.schedMigrations.Load(),
		SchedSteals:        s.schedSteals.Load(),
		SLOs:               s.slo.Snapshot(),
		Traces:             s.traces.Stats(),
	}
}

func (s *Service) diskSnapshot() *DiskStats {
	if s.disk == nil {
		return nil
	}
	st := s.disk.stats()
	return &st
}

func (s *Service) peerSnapshot() *PeerStats {
	if s.ring == nil {
		return nil
	}
	return &PeerStats{
		Self:    s.self,
		Peers:   s.ring.Nodes(),
		Fetches: s.peerFetches.Load(),
		Hits:    s.peerHits.Load(),
		Errors:  s.peerErrors.Load(),
	}
}

// recordSched accounts one successful run's scheduling activity.
func (s *Service) recordSched(policy string, migrations, steals int64) {
	s.schedMigrations.Add(migrations)
	s.schedSteals.Add(steals)
	s.schedRuns.With(policy).Inc()
}

// recordCauses folds one profiled run's attribution into the cumulative
// per-cause totals /statsz and /metrics expose.
func (s *Service) recordCauses(p *profile.Profile) {
	for _, name := range profile.AccountedCauses() {
		if v := p.Causes[name] + p.MP[name] + p.Ring[name]; v != 0 {
			s.causeCycles.With(name).Add(v)
		}
	}
}
