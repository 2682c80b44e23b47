package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"queuemachine/internal/compile"
	"queuemachine/internal/fleet"
	"queuemachine/internal/isa"
	"queuemachine/internal/load"
	"queuemachine/internal/occamgen"
	"queuemachine/internal/sim"
	"queuemachine/internal/xtrace"
)

// serveWorkload is one traffic mix through the fleet.
type serveWorkload struct {
	rate float64 // open-loop rate in requests per second
	warm []*op   // sent once through the gate by every set-up, conns at a time
	// seq returns the i-th op of the measured sequence. Ops whose oracle
	// is still nil are checked after their phase.
	seq func(i int) *op
	// distinct are the workload's programs for the compile ledger, and
	// frontReps how often each is compiled there.
	distinct  []string
	frontReps int
	// fresh returns the j-th program no request has named yet, or nil
	// when every request is a cache hit; the overhead ledger sends those
	// cold.
	fresh func(j int) *op
}

// Open-loop rates sit well below what the fleet sustains on a 2-core
// host — 500 to 880 hot and 180 to 260 cold requests per second through
// the gate, as the host's speed drifts — so a slow stretch of the host
// does not leave a growing backlog.
const (
	hotRate  = 150
	coldRate = 50
)

// coldWarm is how many distinct programs serve-cold's set-up sends: more
// than the fleet's artifact caches hold (2 replicas × 128 entries).
const coldWarm = 320

// hotPEs are the machine sizes serve-hot draws from.
var hotPEs = []int{1, 2, 4, 8}

// hotDeck is the number of requests over which serve-hot's Zipf mix is
// exact: each deck holds every (program, PEs) pair in proportion to its
// Zipf weight and is shuffled by the seed, so run-to-run spread comes
// from request order, not from sampling the mix.
const hotDeck = 2500

func runServeHot(opt options) (*report, error) {
	progs, err := load.Corpus("all")
	if err != nil {
		return nil, err
	}
	// One op per (program, PEs); its oracle is computed before set-up.
	ops := make([][]*op, len(progs))
	var warm []*op
	var distinct []string
	for i, p := range progs {
		distinct = append(distinct, p.Source)
		for _, pes := range hotPEs {
			o := newOp(p.Source, pes)
			if err := o.computeOracle(); err != nil {
				return nil, fmt.Errorf("%s: %w", p.Name, err)
			}
			ops[i] = append(ops[i], o)
			warm = append(warm, o)
		}
	}
	// Zipf s=1.1 over the corpus in its listed order, as load.Run draws
	// it: program k has weight (k+1)^-1.1.
	var deck []*op
	var total float64
	for k := range progs {
		total += math.Pow(float64(k+1), -1.1)
	}
	rng := rand.New(rand.NewPCG(uint64(opt.seed), 0x407))
	for k := range progs {
		n := int(math.Round(hotDeck * math.Pow(float64(k+1), -1.1) / total))
		off := rng.IntN(len(hotPEs))
		for j := range n {
			deck = append(deck, ops[k][(off+j)%len(hotPEs)])
		}
	}
	// Enough shuffled decks for any closed loop this host can run; the
	// sequence wraps after them.
	var seq []*op
	for range 16 {
		for _, i := range rng.Perm(len(deck)) {
			seq = append(seq, deck[i])
		}
	}
	w := &serveWorkload{
		rate:      hotRate,
		warm:      warm,
		seq:       func(i int) *op { return seq[i%len(seq)] },
		distinct:  distinct,
		frontReps: 3,
	}
	return runServe(opt, w)
}

func runServeCold(opt options) (*report, error) {
	// Program i of the run is generator seed base+i, the warm-up and
	// overhead-ledger programs come from ranges no measured request
	// reaches, and base is drawn from the seed. GenerateSeed reduces its
	// seed modulo 2^31-1, so every value stays below that.
	cfg := occamgen.DefaultConfig()
	base := rand.New(rand.NewPCG(uint64(opt.seed), 0xc01d)).Int64N(1 << 30)
	gen := func(i int64) *op { return newOp(occamgen.GenerateSeed(base+i, cfg), 1) }
	const warmBase, freshBase = 1e7, 2e7

	// Warming fills both replicas' artifact caches, so the measured
	// requests meet the steady state of a long-running fleet: full
	// LRUs, evicting on every insert.
	var warm []*op
	for j := range coldWarm {
		warm = append(warm, gen(warmBase+int64(j)))
	}
	// The open-loop ops and their oracles are made before set-up; a
	// pool for the closed loop is generated too, and anything beyond it
	// on demand. A traced run has two open loops of half the length.
	nOpen := openCount(coldRate, opt)
	if opt.traced {
		nOpen *= 2
	}
	pool := make([]*op, 4*nOpen)
	for i := range pool {
		pool[i] = gen(int64(i))
	}
	if err := oracles(append(warm, pool[:nOpen]...)); err != nil {
		return nil, err
	}
	w := &serveWorkload{
		rate: coldRate,
		warm: warm,
		seq: func(i int) *op {
			if i < len(pool) {
				return pool[i]
			}
			return gen(int64(i))
		},
		frontReps: 1,
		fresh:     func(j int) *op { return gen(freshBase + int64(j)) },
	}
	return runServe(opt, w)
}

// phaseTimes splits a run's measured time between one open loop and
// one closed loop; a traced run has two of each. The open loop gets
// three quarters: its percentiles need the samples.
func phaseTimes(opt options) (open, closed time.Duration) {
	d := opt.measure
	if opt.traced {
		d /= 2
	}
	open = d * 3 / 4
	return open, d - open
}

// openCount is the number of requests in one open loop.
func openCount(rate float64, opt options) int {
	open, _ := phaseTimes(opt)
	return int(rate * open.Seconds())
}

// oracles computes the missing oracles of ops on every CPU.
func oracles(ops []*op) error {
	errs := make([]error, len(ops))
	parallel(len(ops), runtime.GOMAXPROCS(0), func(i int) {
		if ops[i].want == nil {
			errs[i] = ops[i].computeOracle()
		}
	})
	return errors.Join(errs...)
}

// parallel calls f(0) … f(n-1) from the given number of goroutines and
// returns when every call has.
func parallel(n, workers int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// servePhase is one open-loop stretch followed by one closed-loop
// stretch, and what they measured.
type servePhase struct {
	open                 []sample
	closedSent, closedOK int64
	closedElapsed        time.Duration
	closedInstrs         int64
	heapMB               float64
	traces               []xtrace.TraceID // per open-loop request, when traced
}

// server drives one workload through one fleet and scores every reply.
type server struct {
	w      *serveWorkload
	f      *servingFleet
	c      *client
	rep    *report
	conns  int
	mu     sync.Mutex
	late   []lateCheck // replies whose oracle is computed after the phase
	served map[*op]bool
	log    *spanLog
}

type lateCheck struct {
	o *op
	r *runReply
}

// exchange sends one op through the gate and scores it. A reply whose
// oracle is not known yet is kept and scored after the phase.
func (s *server) exchange(o *op, trace xtrace.TraceID, span xtrace.SpanID) (*runReply, bool) {
	r, err := s.c.send(s.f.front.URL, o, trace, span)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rep.Attempted++
	if err != nil {
		s.rep.fail("%v", err)
		return nil, false
	}
	if o.want == nil {
		s.late = append(s.late, lateCheck{o, r})
		return r, true
	}
	if err := o.check(r); err != nil {
		s.rep.fail("%v", err)
		return nil, false
	}
	s.served[o] = true
	return r, true
}

// scoreLate computes the deferred oracles and scores the kept replies.
func (s *server) scoreLate() error {
	ops := make([]*op, len(s.late))
	for i, lc := range s.late {
		ops[i] = lc.o
	}
	if err := oracles(ops); err != nil {
		return err
	}
	for _, lc := range s.late {
		if err := lc.o.check(lc.r); err != nil {
			s.rep.fail("%v", err)
		}
	}
	s.late = nil
	return nil
}

// phase runs the open loop over ops [open, open+nOpen) and then the
// closed loop for d over ops from closed on; it returns the index after
// the last closed-loop op. Traced, every request carries a trace id and
// the id of the client's own span as its parent.
func (s *server) phase(open, nOpen, closed int, d time.Duration, traced bool) (*servePhase, int) {
	ph := &servePhase{}
	if traced {
		ph.traces = make([]xtrace.TraceID, nOpen)
	}
	request := func(o *op, trace xtrace.TraceID) (*runReply, bool) {
		if trace == "" {
			return s.exchange(o, "", "")
		}
		span := xtrace.NewSpanID()
		start := time.Now()
		r, ok := s.exchange(o, trace, span)
		s.log.add(trace, span, "", "client.run", start, time.Since(start), nil)
		return r, ok
	}
	heap := startHeapSampler()
	ph.open = openLoop(nOpen, s.w.rate, s.conns, func(i int) bool {
		var trace xtrace.TraceID
		if traced {
			trace = xtrace.NewTraceID()
			ph.traces[i] = trace
		}
		_, ok := request(s.w.seq(open+i), trace)
		return ok
	})
	var instrs int64
	var imu sync.Mutex
	ph.closedSent, ph.closedOK, ph.closedElapsed = closedLoop(d, s.conns, closed, func(i int) bool {
		var trace xtrace.TraceID
		if traced {
			trace = xtrace.NewTraceID()
		}
		r, ok := request(s.w.seq(i), trace)
		if ok {
			imu.Lock()
			instrs += r.Stats.Instructions
			imu.Unlock()
		}
		return ok
	})
	ph.closedInstrs = instrs
	ph.heapMB = heap.peakMB()
	return ph, closed + int(ph.closedSent)
}

func (ph *servePhase) putEndToEnd(v map[string]float64) {
	var lat []float64
	for _, s := range ph.open {
		if s.ok {
			lat = append(lat, ms(s.latency()))
		}
	}
	v["run_p50_ms"] = quantile(lat, 0.50)
	v["run_p99_ms"] = quantile(lat, 0.99)
	v["sat_rps"] = float64(ph.closedOK) / ph.closedElapsed.Seconds()
	v["sim_minstr_per_s"] = float64(ph.closedInstrs) / ph.closedElapsed.Seconds() / 1e6
	v["heap_peak_mb"] = ph.heapMB
}

func runServe(opt options, w *serveWorkload) (*report, error) {
	rep := newReport()
	conns := runtime.NumCPU()
	c := newClient(conns)
	defer c.tr.CloseIdleConnections()
	traceCapacity := 0
	if opt.traced {
		traceCapacity = 1 << 15
	}
	s := &server{w: w, c: c, rep: rep, conns: conns, served: map[*op]bool{}, log: &spanLog{}}

	// Set-up is booting the fleet and warming it; it is repeated and the
	// last fleet is the one measured.
	var setups []float64
	for begin := time.Now(); ; {
		start := time.Now()
		f, err := bootFleet(filepath.Join(opt.out, "tmp"), traceCapacity)
		if err != nil {
			return nil, err
		}
		s.f = f
		parallel(len(w.warm), conns, func(i int) { s.exchange(w.warm[i], "", "") })
		setups = append(setups, time.Since(start).Seconds())
		if setupDone(setups, begin) {
			break
		}
		f.close()
		c.tr.CloseIdleConnections()
	}
	defer s.f.close()
	rep.Values["setup_s"] = median(setups)
	if msg := selfTest(s.f, c, w.warm[0]); msg != "" {
		rep.invalid("%s", msg)
	}

	nOpen := openCount(w.rate, opt)
	_, closed := phaseTimes(opt)
	if !opt.traced {
		ph, _ := s.phase(0, nOpen, nOpen, closed, false)
		if err := s.scoreLate(); err != nil {
			return nil, err
		}
		ph.putEndToEnd(rep.Values)
		rep.Values["sim_cycles"] = s.servedCycles()
		rep.Detail["samples"] = map[string]int64{"open_loop": int64(nOpen), "closed_loop": ph.closedSent}
		return rep, nil
	}

	// Ops are numbered open loop by open loop, then the closed loops.
	untraced, next := s.phase(0, nOpen, 2*nOpen, closed, false)
	before, err := s.f.stats(c)
	if err != nil {
		return nil, err
	}
	traced, _ := s.phase(nOpen, nOpen, next, closed, true)
	after, err := s.f.stats(c)
	if err != nil {
		return nil, err
	}
	if err := s.scoreLate(); err != nil {
		return nil, err
	}
	u, t := map[string]float64{}, map[string]float64{}
	untraced.putEndToEnd(u)
	traced.putEndToEnd(t)
	rep.Detail["untraced"], rep.Detail["traced"] = u, t
	rep.Detail["samples"] = map[string]int64{"open_loop": int64(nOpen),
		"untraced_closed_loop": untraced.closedSent, "traced_closed_loop": traced.closedSent}
	v := map[string]float64{}
	putOverhead(v, u, t)
	if err := s.ledger(v, traced, nOpen, after.sub(before)); err != nil {
		return nil, err
	}
	v["unexplained_ms"] = t["run_p50_ms"] - (v["load.late_p50_ms"] + v["client.wire_ms"] +
		v["gate.relay_ms"] + v["service.queue_wait_ms"] + v["service.handler_ms"] +
		v["service.artifact_ms"] + v["sim.new_us"]/1000 + v["sim.loop_ms"])
	rep.Values = v
	return rep, nil
}

// servedCycles is the geometric mean of simulated cycles over the
// distinct ops served correctly in set-up and the open loop.
func (s *server) servedCycles() float64 {
	var xs []float64
	for o := range s.served {
		xs = append(xs, float64(o.want.Cycles))
	}
	return geomean(xs)
}

// ledgerSample bounds how many traced requests the ledger fetches spans
// for and replays directly.
const ledgerSample = 1000

// ledger fills the per-layer metrics of a traced serving run: span
// self-times of the traced open loop, direct calls into each layer for
// the same ops, the service overhead, and the replicas' counters.
func (s *server) ledger(v map[string]float64, ph *servePhase, first int, delta replicaStats) error {
	var late []float64
	for _, smp := range ph.open {
		late = append(late, ms(smp.late()))
	}
	var wire, relay, queue, artifact, simulate, handler []float64
	var attempts, traced int
	var sampled []*op
	stride := max(1, len(ph.open)/ledgerSample)
	for i := 0; i < len(ph.open); i += stride {
		smp := ph.open[i]
		if !smp.ok {
			continue
		}
		spans, err := s.f.traceSpans(s.c, ph.traces[i])
		if err != nil {
			return err
		}
		var d struct{ proxy, run, queue, artifact, simulate int64 }
		for _, sp := range spans {
			switch sp.Name {
			case "proxy":
				d.proxy += sp.DurUS
			case "gate.attempt":
				attempts++
			case "run":
				d.run += sp.DurUS
			case "queue.wait":
				d.queue += sp.DurUS
			case "artifact":
				d.artifact += sp.DurUS
			case "simulate":
				d.simulate += sp.DurUS
			}
		}
		traced++
		client := smp.done.Sub(smp.sent).Microseconds()
		wire = append(wire, float64(client-d.proxy)/1000)
		relay = append(relay, float64(d.proxy-d.run)/1000)
		queue = append(queue, float64(d.queue)/1000)
		artifact = append(artifact, float64(d.artifact)/1000)
		simulate = append(simulate, float64(d.simulate)/1000)
		handler = append(handler, float64(d.run-d.queue-d.artifact-d.simulate)/1000)
		s.log.record(spans...)
		sampled = append(sampled, s.w.seq(first+i))
	}
	if traced == 0 {
		return fmt.Errorf("no traced request succeeded")
	}
	v["client.wire_ms"] = median(wire)
	v["gate.relay_ms"] = median(relay)
	v["service.queue_wait_ms"] = median(queue)
	v["service.queue_wait_p99_ms"] = quantile(queue, 0.99)
	v["service.artifact_ms"] = median(artifact)
	v["service.simulate_ms"] = median(simulate)
	v["service.handler_ms"] = median(handler)
	v["gate.attempts_per_req"] = float64(attempts) / float64(traced)
	v["load.late_p50_ms"] = median(late)
	v["load.late_p99_ms"] = quantile(late, 0.99)
	v["service.cache_hit_ratio"] = ratio(delta.hits, delta.hits+delta.misses)
	v["service.coalesced_ratio"] = ratio(delta.coalesced, delta.runs)
	v["service.rejected"] = float64(delta.rejected)
	v["service.disk_writes"] = float64(delta.diskWrites)
	v["fleet.peer_fetches"] = float64(delta.peerFetches)
	s.rep.Detail["ledger_requests"] = traced

	// Direct calls into each layer, for the same programs and ops.
	distinct := s.w.distinct
	if distinct == nil {
		for _, o := range sampled {
			distinct = append(distinct, o.src)
		}
	}
	parseMS, backMS, objs, err := frontEnd(distinct, s.w.frontReps)
	if err != nil {
		return err
	}
	v["occam.parse_ms"], v["compile.back_ms"] = parseMS, backMS
	instrs, graphs, err := codeSize(objs)
	if err != nil {
		return err
	}
	v["compile.object_instrs"], v["compile.graphs"] = float64(instrs), float64(graphs)
	if v["pe.load_us"], err = loadTimes(objs, 5); err != nil {
		return err
	}
	objOf := map[string]*isa.Object{}
	for i, src := range distinct {
		objOf[src] = objs[i]
	}
	params := sim.DefaultParams()
	var newUS, loopMS []float64
	for _, o := range sampled {
		st, err := timeSim(objOf[o.src], o.pes, params)
		if err != nil {
			return err
		}
		newUS = append(newUS, us(st.new))
		loopMS = append(loopMS, ms(st.loop))
	}
	v["sim.new_us"], v["sim.loop_ms"] = median(newUS), median(loopMS)
	for _, pes := range []int{1, 64} {
		if v[fmt.Sprintf("sim.ns_per_instr.%dpe", pes)], err = nsPerInstr(objs, pes, params); err != nil {
			return err
		}
	}
	var counts modelCounts
	for o := range s.served {
		counts.add(o.want)
	}
	counts.put(v)
	if v["service.overhead_ms"], err = s.overhead(sampled); err != nil {
		return err
	}
	s.rep.Detail["spans"] = len(s.log.spans)
	s.rep.Spans = s.log.spans
	return nil
}

// overheadSample is how many ops the service-overhead ledger sends.
const overheadSample = 200

// overhead is the median, over ops sent straight to the replica that
// owns them, of the request's latency minus the direct calls that do
// the same work: sim.New and Run for a hot request, and parse and
// compile besides for a cold one.
func (s *server) overhead(sampled []*op) (float64, error) {
	ring := fleet.NewRing(s.f.urls, 0)
	params := sim.DefaultParams()
	var xs []float64
	for j := range min(overheadSample, len(sampled)) {
		o := sampled[j]
		cold := s.w.fresh != nil
		if cold {
			o = s.w.fresh(j)
		}
		owner := ring.Owner(compile.Fingerprint(o.src, compile.Options{}))
		start := time.Now()
		r, err := s.c.send(owner, o, "", "")
		lat := time.Since(start)
		s.rep.Attempted++
		if err != nil {
			s.rep.fail("overhead ledger: %v", err)
			continue
		}
		start = time.Now()
		art, err := compile.Compile(o.src, compile.Options{})
		if err != nil {
			return 0, err
		}
		compileTime := time.Since(start)
		st, err := timeSim(art.Object, o.pes, params)
		if err != nil {
			return 0, err
		}
		direct := st.new + st.loop
		if cold {
			direct += compileTime
			o.want = st.res
		}
		if err := o.check(r); err != nil {
			s.rep.fail("overhead ledger: %v", err)
			continue
		}
		xs = append(xs, ms(lat-direct))
	}
	return median(xs), nil
}
