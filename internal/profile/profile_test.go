package profile

import (
	"strings"
	"testing"

	"queuemachine/internal/trace"
)

// sumCauses totals a cause map.
func sumCauses(m map[string]int64) int64 {
	var s int64
	for _, v := range m {
		s += v
	}
	return s
}

// TestSingleLaneAttribution drives one processing element through every
// PE-lane cause by hand and checks the exact bucket totals.
func TestSingleLaneAttribution(t *testing.T) {
	p := New(1)
	p.ContextCreated(0, -1, 0, 0)
	p.ContextReady(0, 0, 1, 0)
	p.BeginRun(0, 0, 10, 10, false)        // switch [0,10)
	p.Instr(0, 0, 0, 0, "fetch", 10, 5, 2) // [10,15): 3 execute + 2 stall
	// In-occupancy gap [15,20) = kernel fork/trap service.
	p.EndRun(0, 0, 20, trace.EndBlockedWait)
	// Idle with a sleeping context [20,30) = timer wait.
	p.ContextReady(0, 0, 1, 30)
	p.BeginRun(0, 0, 32, 2, true)        // resume [30,32)
	p.Instr(0, 0, 0, 1, "add", 32, 1, 0) // [32,33)
	p.EndRun(0, 0, 33, trace.EndExited)
	p.ContextExited(0, 0, 33)
	prof := p.Finalize(40) // trailing idle [33,40)

	want := map[string]int64{
		"execute":        4,
		"queue-stall":    2,
		"context-switch": 12,
		"fork-service":   5,
		"timer-wait":     10,
		"idle":           7,
	}
	for cause, v := range want {
		if prof.Causes[cause] != v {
			t.Errorf("%s = %d, want %d", cause, prof.Causes[cause], v)
		}
	}
	if got := sumCauses(prof.Causes); got != 40 {
		t.Errorf("cause total = %d, want makespan 40", got)
	}
	if prof.ContextCount != 1 {
		t.Errorf("ContextCount = %d", prof.ContextCount)
	}

	cp := prof.CriticalPath
	if cp == nil {
		t.Fatal("no critical path")
	}
	if cp.Incomplete {
		t.Errorf("critical path incomplete: %+v", cp.Segments)
	}
	if got := sumCauses(cp.Causes); got != 40 {
		t.Errorf("path cause total = %d, want 40: %+v", got, cp.Segments)
	}
	// The single context slept [20,30): the path must carry timer wait;
	// the trailing [33,40) is idle.
	if cp.Causes["timer-wait"] != 10 || cp.Causes["idle"] != 7 {
		t.Errorf("path causes = %v, want timer-wait 10, idle 7", cp.Causes)
	}
}

// TestRendezvousAttribution exercises the rendezvous happens-before edge:
// two contexts on two processing elements, a send parked first, the recv
// completing the pairing.
func TestRendezvousAttribution(t *testing.T) {
	p := New(2)
	p.ContextCreated(0, -1, 0, 0)
	p.ContextReady(0, 0, 1, 0)
	p.ContextCreated(1, 0, 1, 0)
	p.ContextReady(1, 1, 1, 0)

	// ctx 0 on PE 0: runs [5,10), sends on ch 3, parks.
	p.BeginRun(0, 0, 5, 5, false)
	p.Instr(0, 0, 0, 0, "send", 5, 5, 0)
	p.EndRun(0, 0, 10, trace.EndBlockedSend)
	// The send request reaches channel 3's home MP and parks (no partner).
	p.MsgOp(1, 3, trace.ChanSend, 10, 13, true, false, -1, -1)

	// ctx 1 on PE 1: runs [5,20), recvs on ch 3 — completing the pairing.
	p.BeginRun(1, 1, 5, 5, false)
	p.Instr(1, 1, 1, 0, "recv", 5, 15, 0)
	p.EndRun(1, 1, 20, trace.EndBlockedRecv)
	p.MsgOp(1, 3, trace.ChanRecv, 20, 23, true, true, 0, 1)

	// Both wake: the receiver locally at 23, the sender across the ring.
	p.RingTransfer(1, 0, 23, 27, 1)
	p.ContextReady(1, 1, 1, 23)
	p.ContextReady(0, 0, 1, 27)

	// The receiver finishes the run.
	p.BeginRun(1, 1, 25, 2, true)
	p.Instr(1, 1, 1, 1, "exit", 25, 5, 0)
	p.EndRun(1, 1, 30, trace.EndExited)
	p.ContextExited(1, 1, 30)
	p.BeginRun(0, 0, 29, 2, true)
	p.Instr(0, 0, 0, 1, "exit", 29, 1, 0)
	p.EndRun(0, 0, 30, trace.EndExited)
	p.ContextExited(0, 0, 30)

	prof := p.Finalize(30)
	if got := sumCauses(prof.Causes); got != 60 {
		t.Fatalf("cause total = %d, want 2 PEs × 30 = 60", got)
	}
	// PE 0 idled [10,27) with its context parked in a send.
	if prof.PerPE[0]["send-wait"] == 0 {
		t.Errorf("PE 0 shows no send-wait: %v", prof.PerPE[0])
	}
	if prof.MP["mp-service"] != 6 {
		t.Errorf("mp-service = %d, want 6", prof.MP["mp-service"])
	}
	if prof.Ring["ring-transfer"] != 3 || prof.Ring["ring-wait"] != 1 {
		t.Errorf("ring = %v", prof.Ring)
	}

	cp := prof.CriticalPath
	if cp == nil || cp.Incomplete {
		t.Fatalf("critical path = %+v", cp)
	}
	if got := sumCauses(cp.Causes); got != 30 {
		t.Errorf("path cause total = %d, want 30: %+v", got, cp.Segments)
	}
	// The final exit was ctx 1 (its wake came through the MP service):
	// the path must include message-processor service time.
	if cp.Causes["mp-service"] == 0 {
		t.Errorf("path has no mp-service: %+v", cp.Causes)
	}
}

// TestCauseStrings pins the taxonomy names the serialized profiles and
// /metrics labels expose.
func TestCauseStrings(t *testing.T) {
	want := map[Cause]string{
		CauseExecute:      "execute",
		CauseQueueStall:   "queue-stall",
		CauseSwitch:       "context-switch",
		CauseFork:         "fork-service",
		CauseSendWait:     "send-wait",
		CauseRecvWait:     "recv-wait",
		CauseTimerWait:    "timer-wait",
		CauseIdle:         "idle",
		CauseDispatchWait: "dispatch-wait",
		CauseMPService:    "mp-service",
		CauseMPMiss:       "mcache-miss",
		CauseRingTransfer: "ring-transfer",
		CauseRingWait:     "ring-wait",
	}
	for c, name := range want {
		if c.String() != name {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), name)
		}
	}
	if len(PECauses()) != int(numPECauses) {
		t.Errorf("PECauses lists %d causes, taxonomy has %d", len(PECauses()), numPECauses)
	}
	// Every cause but the critical path's dispatch-wait is accounted.
	if n := len(AccountedCauses()); n != len(want)-1 {
		t.Errorf("AccountedCauses lists %d causes, want %d", n, len(want)-1)
	}
}

// TestSummaryReport smoke-tests the text report.
func TestSummaryReport(t *testing.T) {
	p := New(1)
	p.ContextCreated(0, -1, 0, 0)
	p.ContextReady(0, 0, 1, 0)
	p.BeginRun(0, 0, 2, 2, false)
	p.Instr(0, 0, 0, 0, "add", 2, 3, 1)
	p.EndRun(0, 0, 5, trace.EndExited)
	p.ContextExited(0, 0, 5)
	prof := p.Finalize(5)

	var b strings.Builder
	prof.WriteSummary(&b)
	out := b.String()
	for _, want := range []string{"cycle attribution", "execute", "critical path", "hottest graph nodes"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
