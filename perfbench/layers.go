package main

import (
	"fmt"
	"sync"
	"time"

	"queuemachine/internal/compile"
	"queuemachine/internal/isa"
	"queuemachine/internal/occam"
	"queuemachine/internal/pe"
	"queuemachine/internal/sim"
	"queuemachine/internal/xtrace"
)

// modelCounts totals the exact simulated-machine counts of sim.Result over
// a workload's distinct (program, PEs) pairs.
type modelCounts struct {
	instrs, rolled, contexts, switches, migrations    int64
	mcHits, mcMisses, mcEvictions, ringMsgs, ringWait int64
}

func (c *modelCounts) add(res *sim.Result) {
	c.instrs += res.Instructions
	c.rolled += res.RolledRegisters
	c.contexts += res.Kernel.ContextsCreated
	c.switches += res.Switches
	c.migrations += res.Kernel.Migrations
	c.mcHits += res.Cache.Hits
	c.mcMisses += res.Cache.Misses
	c.mcEvictions += res.Cache.Evictions
	c.ringMsgs += res.Ring.Messages
	c.ringWait += res.Ring.WaitCycles
}

func (c *modelCounts) put(v map[string]float64) {
	v["pe.instructions"] = float64(c.instrs)
	v["pe.rolled_registers"] = float64(c.rolled)
	v["kernel.contexts"] = float64(c.contexts)
	v["kernel.switches"] = float64(c.switches)
	v["kernel.migrations"] = float64(c.migrations)
	v["mcache.hit_ratio"] = ratio(c.mcHits, c.mcHits+c.mcMisses)
	v["mcache.evictions"] = float64(c.mcEvictions)
	v["ring.messages"] = float64(c.ringMsgs)
	v["ring.wait_cycles"] = float64(c.ringWait)
}

func ratio(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// codeSize counts the instructions and graphs of compiled objects.
func codeSize(objs []*isa.Object) (instrs, graphs int, err error) {
	for _, obj := range objs {
		graphs += len(obj.Graphs)
		for _, g := range obj.Graphs {
			for pc := 0; pc < len(g.Code); {
				_, n, err := isa.Decode(g.Code[pc:])
				if err != nil {
					return 0, 0, fmt.Errorf("graph %s pc %d: %w", g.Name, pc, err)
				}
				instrs++
				pc += n
			}
		}
	}
	return instrs, graphs, nil
}

// frontEnd times the compiler's two public stages on each source, reps
// times over: occam.Parse and compile.CompileProgram. It reports the
// median of each, in milliseconds, and the last compiled objects.
func frontEnd(srcs []string, reps int) (parseMS, backMS float64, objs []*isa.Object, err error) {
	var parse, back []float64
	objs = make([]*isa.Object, len(srcs))
	for range reps {
		for i, src := range srcs {
			t0 := time.Now()
			prog, err := occam.Parse(src)
			t1 := time.Now()
			if err != nil {
				return 0, 0, nil, fmt.Errorf("parse: %w", err)
			}
			art, err := compile.CompileProgram(prog, compile.Options{})
			t2 := time.Now()
			if err != nil {
				return 0, 0, nil, fmt.Errorf("compile: %w", err)
			}
			parse = append(parse, ms(t1.Sub(t0)))
			back = append(back, ms(t2.Sub(t1)))
			objs[i] = art.Object
		}
	}
	return median(parse), median(back), objs, nil
}

// loadTimes is the median time of pe.LoadProgram over objs, reps times
// over, in microseconds.
func loadTimes(objs []*isa.Object, reps int) (float64, error) {
	var xs []float64
	for range reps {
		for _, obj := range objs {
			t0 := time.Now()
			_, err := pe.LoadProgram(obj)
			xs = append(xs, us(time.Since(t0)))
			if err != nil {
				return 0, err
			}
		}
	}
	return median(xs), nil
}

// simTiming is one direct simulation split at the sim.New / Run boundary.
type simTiming struct {
	new, loop time.Duration
	res       *sim.Result
}

func timeSim(obj *isa.Object, pes int, params sim.Params) (simTiming, error) {
	t0 := time.Now()
	sys, err := sim.New(obj, pes, params)
	t1 := time.Now()
	if err != nil {
		return simTiming{}, err
	}
	res, err := sys.Run()
	t2 := time.Now()
	if err != nil {
		return simTiming{}, err
	}
	return simTiming{new: t1.Sub(t0), loop: t2.Sub(t1), res: res}, nil
}

// nsPerInstr runs every object directly at pes and returns event-loop
// nanoseconds per simulated instruction over the lot.
func nsPerInstr(objs []*isa.Object, pes int, params sim.Params) (float64, error) {
	var loop time.Duration
	var instrs int64
	for _, obj := range objs {
		st, err := timeSim(obj, pes, params)
		if err != nil {
			return 0, err
		}
		loop += st.loop
		instrs += st.res.Instructions
	}
	return float64(loop.Nanoseconds()) / float64(max(instrs, 1)), nil
}

// spanLog records the benchmark's own spans — around its calls into each
// layer — in the same shape the serving processes record theirs, so one
// file holds the whole tree. Safe for concurrent use.
type spanLog struct {
	mu    sync.Mutex
	spans []xtrace.Span
}

func (l *spanLog) record(spans ...xtrace.Span) {
	l.mu.Lock()
	l.spans = append(l.spans, spans...)
	l.mu.Unlock()
}

// add records one of the benchmark's own spans under the given id, or a
// fresh one when id is empty, and returns the id.
func (l *spanLog) add(trace xtrace.TraceID, id, parent xtrace.SpanID, name string, start time.Time, d time.Duration, attrs map[string]string) xtrace.SpanID {
	if id == "" {
		id = xtrace.NewSpanID()
	}
	l.record(xtrace.Span{Trace: trace, ID: id, Parent: parent, Process: "perfbench", Name: name,
		StartUS: start.UnixMicro(), DurUS: d.Microseconds(), Attrs: attrs})
	return id
}

// noServing zeroes the serving-layer metrics for a workload whose path
// never enters the serving tier.
func noServing(v map[string]float64) {
	for _, name := range []string{
		"service.overhead_ms", "service.queue_wait_ms", "service.queue_wait_p99_ms",
		"service.artifact_ms", "service.simulate_ms", "service.handler_ms",
		"service.cache_hit_ratio", "service.coalesced_ratio", "service.rejected",
		"service.disk_writes", "gate.relay_ms", "gate.attempts_per_req",
		"fleet.peer_fetches", "client.wire_ms", "load.late_p50_ms", "load.late_p99_ms",
	} {
		v[name] = 0
	}
}
