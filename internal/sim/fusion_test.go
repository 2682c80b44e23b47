package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"queuemachine/internal/compile"
	"queuemachine/internal/isa"
	"queuemachine/internal/mcache"
	"queuemachine/internal/pe"
	"queuemachine/internal/trace"
	"queuemachine/internal/workloads"
)

// runFusion executes obj with step batching on and same-cycle event fusion
// on or off, recording every hook, and returns the result (or error), the
// hook log and the Chrome trace.
func runFusion(t *testing.T, obj *isa.Object, numPEs int, params Params, fuse bool) (*Result, error, string, []byte) {
	t.Helper()
	sys, err := New(obj, numPEs, params)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sys.fuse = fuse
	logRec := &logRecorder{every: 64}
	chrome := trace.NewChrome(64)
	sys.SetRecorder(trace.Multi(chrome, logRec))
	res, runErr := sys.Run()
	var buf bytes.Buffer
	if runErr == nil {
		if err := chrome.Write(&buf); err != nil {
			t.Fatalf("Chrome.Write: %v", err)
		}
	}
	return res, runErr, logRec.b.String(), buf.Bytes()
}

// checkFusionEquivalence asserts that fusing runs each follow-up exactly
// where the queue's order pops it: the same result or error, the same
// hook stream and the same Chrome trace as a run that queues every event.
func checkFusionEquivalence(t *testing.T, name string, obj *isa.Object, params Params, peCounts []int) {
	t.Helper()
	for _, pes := range peCounts {
		fused, fusedErr, fusedLog, fusedTrace := runFusion(t, obj, pes, params, true)
		plain, plainErr, plainLog, plainTrace := runFusion(t, obj, pes, params, false)
		if fmt.Sprint(fusedErr) != fmt.Sprint(plainErr) {
			t.Errorf("%s on %d PEs: fused error %v, queued error %v", name, pes, fusedErr, plainErr)
		}
		if !reflect.DeepEqual(fused, plain) {
			t.Errorf("%s on %d PEs: fused Result differs from queued Result\nfused:  %+v\nqueued: %+v",
				name, pes, fused, plain)
		}
		if fusedLog != plainLog {
			t.Errorf("%s on %d PEs: recorder hook streams differ: %s", name, pes, firstLogDiff(fusedLog, plainLog))
		}
		if !bytes.Equal(fusedTrace, plainTrace) {
			t.Errorf("%s on %d PEs: Chrome traces differ (%d vs %d bytes)", name, pes, len(fusedTrace), len(plainTrace))
		}
	}
}

// TestFusionMatchesQueueOrder compares fused and queued runs over
// compiled workloads and blocking-heavy assembly, under timing variants
// that put more events in one cycle: a zero-cost message processor
// delivers in the cycle of the request that carries a kick, a zero-cost
// fork resumes the parent in the cycle of its trap, and free switches
// start a dispatched context in the cycle of its kick.
func TestFusionMatchesQueueOrder(t *testing.T) {
	variants := []struct {
		name string
		set  func(*Params)
	}{
		{"default", func(*Params) {}},
		{"mp-0", func(p *Params) { p.MPCycles, p.MPMissPenalty = 0, 0 }},
		{"fork-0", func(p *Params) { p.ForkCycles = 0 }},
		{"switch-0", func(p *Params) { p.PE.SwitchBase, p.Resume = 0, 0 }},
	}
	var objs []struct {
		name string
		obj  *isa.Object
	}
	for _, w := range []workloads.Workload{workloads.MatMul(3), workloads.FFT(2), workloads.Congruence(3), workloads.Bitonic(3)} {
		art, err := compile.Compile(w.Source, compile.Options{})
		if err != nil {
			t.Fatalf("%s: Compile: %v", w.Name, err)
		}
		objs = append(objs, struct {
			name string
			obj  *isa.Object
		}{w.Name, art.Object})
	}
	for _, a := range []struct{ name, src string }{
		{"producer-consumer", producerConsumer},
		{"fan-out", fanOut(4, 10)},
		{"wait", waitProgram},
	} {
		objs = append(objs, struct {
			name string
			obj  *isa.Object
		}{a.name, assemble(t, a.src)})
	}
	for _, v := range variants {
		params := DefaultParams()
		v.set(&params)
		for _, o := range objs {
			checkFusionEquivalence(t, o.name+"/"+v.name, o.obj, params, []int{1, 2, 3, 8})
		}
	}
}

// exitOnly is a program whose every context exits at once: the fusion
// scenarios below build their contexts by hand.
const exitOnly = `
.graph main queue=32
	trap #0,#0
`

// fusionScenario is a one-PE system with three contexts of exitOnly: r
// blocked receiving on channel ch, s blocked sending, and x ready, with
// the message processor free of charge so that a request completes in the
// cycle it arrives.
func fusionScenario(t *testing.T) (sys *System, log *logRecorder, ch int32, r, s, x *pe.Context) {
	t.Helper()
	params := DefaultParams()
	params.MPCycles, params.MPMissPenalty = 0, 0
	sys, err := New(assemble(t, exitOnly), 1, params)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	log = &logRecorder{}
	sys.SetRecorder(log)
	sys.runCtx = context.Background()
	sys.instrsToPoll = ctxPollInstrs
	words := sys.prog.QueueWords(0)
	for range 3 {
		sys.kern.CreateContext(0, words, -1, 0, 0, 0)
	}
	ch = sys.kern.AllocChannel()
	r, _ = sys.kern.NextReady(0)
	r.Status = pe.BlockedRecv
	if done, _, err := sys.caches[0].Recv(ch, mcache.ContextRef{PE: 0, Ctx: r.ID}); done != nil || err != nil {
		t.Fatalf("parking the receiver: %v %v", done, err)
	}
	s, _ = sys.kern.NextReady(0)
	s.Status = pe.BlockedSend
	x, _ = sys.kern.Context(2)
	return sys, log, ch, r, s, x
}

// TestFollowUpRunsBeforeCarrierSameTimeEvents: s's send request arrives at
// cycle 10 carrying the kick of its idle element, and completes the
// rendezvous at once, so the request's own handler schedules both
// deliveries for cycle 10 too. Those were scheduled after the kick, so in
// schedule order the kick dispatches x before r and s are made ready;
// the fused kick must do the same, and the whole run must match the run
// that queues the kick.
func TestFollowUpRunsBeforeCarrierSameTimeEvents(t *testing.T) {
	logs := map[bool]string{}
	for _, fuse := range []bool{true, false} {
		sys, log, ch, r, s, x := fusionScenario(t)
		req := sys.schedule(10, evChanReq, 0, int32(s.ID))
		req.op, req.ch, req.val, req.src = opSend, ch, 7, 0
		if fuse {
			req.then = thenKick
		} else {
			sys.scheduleKick(0, 10)
		}
		sys.runLoop()
		if sys.err != nil || !sys.finished {
			t.Fatalf("fuse=%v: err %v, finished %v", fuse, sys.err, sys.finished)
		}
		// Creation readied every context at cycle 0; look past it.
		after := afterLine(log.b.String(), "msgop ")
		beginX := strings.Index(after, fmt.Sprintf("begin 0 %d ", x.ID))
		readyR := strings.Index(after, fmt.Sprintf("ready %d 0 ", r.ID))
		if beginX < 0 || readyR < 0 || beginX > readyR {
			t.Errorf("fuse=%v: the kick did not dispatch x before the cycle-10 delivery readied r:\n%s", fuse, log.b.String())
		}
		logs[fuse] = log.b.String()
	}
	if logs[true] != logs[false] {
		t.Errorf("fused and queued hook streams differ: %s", firstLogDiff(logs[true], logs[false]))
	}
}

// TestFollowUpSkippedAfterErrorOrFinish: a follow-up runs only where the
// loop would have popped it, so not once the carrier's handler has failed
// or finished the program.
func TestFollowUpSkippedAfterErrorOrFinish(t *testing.T) {
	for _, stop := range []string{"error", "finished", "neither"} {
		sys, _, _, _, _, x := fusionScenario(t)
		switch stop {
		case "error":
			sys.err = errors.New("carrier failed")
		case "finished":
			sys.finished = true
		}
		sys.followUp(&event{then: thenKick, src: 0})
		if ran := sys.running[0] == x; ran != (stop == "neither") {
			t.Errorf("%s: follow-up kick dispatched x: %v", stop, ran)
		}
	}

	// End to end: the receiver's delivery fails (a negative queue pointer)
	// while the sender's acknowledgement, due in the same cycle, rides on
	// it. The queued run stops before popping the acknowledgement, so
	// the fused one must not run it either.
	obj := assemble(t, `
.entry main
.graph main queue=32
	trap #1,@worker :r17,r18
	send r17,#-1
	trap #0,#0
.graph worker queue=32
	recv cin :qp
	trap #0,#0
`)
	checkFusionEquivalence(t, "failed-delivery", obj, DefaultParams(), []int{1, 2})
	_, err, log, _ := runFusion(t, obj, 1, DefaultParams(), true)
	if err == nil || !strings.Contains(err.Error(), "queue pointer") {
		t.Fatalf("run error = %v, want the negative queue pointer", err)
	}
	// Context 0 is the sender; its last request completed the rendezvous.
	if strings.Contains(afterLine(log, "msgop 0 3 recv"), "ready 0 ") {
		t.Errorf("the sender was made ready after the failed delivery:\n%s", log)
	}
}

// TestFusedStepBatchesToNow: unfused, the kick a step carries waits in
// the queue at the step's own time, so the step executes one instruction
// and defers the next; it must stop there when the kick rides on it too,
// even with nothing queued.
func TestFusedStepBatchesToNow(t *testing.T) {
	for _, then := range []followUp{thenNone, thenKick} {
		sys, err := New(assemble(t, singleContext), 1, DefaultParams())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		sys.runCtx = context.Background()
		sys.instrsToPoll = ctxPollInstrs
		entry := sys.prog.Obj.Entry
		sys.kern.CreateContext(entry, sys.prog.QueueWords(entry), -1, 0, 0, 0)
		c, _ := sys.kern.NextReady(0)
		sys.running[0] = c
		sys.handleStep(&event{kind: evStep, pe: 0, ctx: int32(c.ID), then: then, src: 0})
		got := sys.machines[0].Stats.Instructions
		if then == thenKick && (got != 1 || sys.q.len() != 1) {
			t.Errorf("step carrying a kick executed %d instructions and queued %d events, want 1 and its next step", got, sys.q.len())
		}
		if then == thenNone && got < 2 {
			t.Errorf("plain step with an empty queue executed %d instructions, want a batch", got)
		}
	}
}

// afterLine returns the part of a hook log after the last line starting
// with prefix, or "" when there is none.
func afterLine(log, prefix string) string {
	i := strings.LastIndex("\n"+log, "\n"+prefix)
	if i < 0 {
		return ""
	}
	rest := log[i:]
	if j := strings.IndexByte(rest, '\n'); j >= 0 {
		return rest[j+1:]
	}
	return ""
}
