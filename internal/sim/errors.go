package sim

import (
	"fmt"
	"strings"
)

// DeadlockError reports that the event queue drained while contexts were
// still live: every remaining context is blocked on a rendezvous that can
// never complete. Snapshot carries the kernel's per-context state lines so
// callers (and CI) can print a diagnosis; qsim uses errors.As on this type
// to pick a distinct exit code.
type DeadlockError struct {
	// Cycle is the simulated time at which the machine stalled.
	Cycle int64
	// Live is the number of contexts still allocated.
	Live int
	// Snapshot lists the live contexts and their blocking states.
	Snapshot []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at cycle %d with %d live contexts:\n%s",
		e.Cycle, e.Live, strings.Join(e.Snapshot, "\n"))
}

// ConfigError reports an invalid simulation configuration: a Params field
// (or the machine size) whose value cannot be simulated. Callers that
// surface configuration over a wire (qmd) use errors.As on this type to
// answer with a client error rather than a simulation failure.
type ConfigError struct {
	// Field names the offending configuration knob ("pes").
	Field string
	// Reason explains the rejection in one sentence.
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("sim: invalid %s: %s", e.Field, e.Reason)
}
