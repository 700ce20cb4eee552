package pram

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime/debug"

	"repro/internal/faultinject"
)

// ErrWorkerPanic reports an update cycle that panicked during the
// attempt phase. The machine recovers the panic, publishes no intent for
// the panicked processor, and fails the run with a CyclePanicError
// instead of crashing the process.
var ErrWorkerPanic = errors.New("pram: update cycle panicked")

// CyclePanicError is the run error produced when a processor's Cycle
// panics — whether naturally (an algorithm bug) or injected through the
// kernel.cycle failpoint. It wraps ErrWorkerPanic and carries enough to
// locate the crash: the processor, the tick, the recovered value, and
// the stack of the panicking cycle.
type CyclePanicError struct {
	// PID and Tick locate the crashed update cycle.
	PID, Tick int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (e *CyclePanicError) Error() string {
	return fmt.Sprintf("%v (pid=%d, tick=%d): %v", ErrWorkerPanic, e.PID, e.Tick, e.Value)
}

// Unwrap makes errors.Is(err, ErrWorkerPanic) hold.
func (e *CyclePanicError) Unwrap() error { return ErrWorkerPanic }

// attemptRange runs the update cycles of the live PIDs in PID order,
// isolating panics: it recovers injected and natural panics so a
// crashing cycle fails the run, not the process, and it hosts the
// kernel.cycle failpoint. Isolation is per span, not per cycle, so the
// no-panic hot path pays one defer per tick instead of one per
// processor; a panic costs one extra attemptSpan call and the remaining
// pids still attempt.
func (m *Machine) attemptRange() {
	for next := 0; next >= 0; {
		next = m.attemptSpan(next)
	}
}

// attemptSpan attempts the live pids from lo on and returns -1, or —
// when a cycle panics — records the crash and returns the pid after the
// panicked one. The injection decision is keyed on (tick, pid), not on
// a hit counter, so a fault schedule names logical sites: it fires at
// the same cycles in a resumed run as in an uninterrupted one.
func (m *Machine) attemptSpan(lo int) (next int) {
	pid := lo
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		// A panicked attempt publishes nothing (attemptOne publishes
		// last, so m.intents[pid] is still nil from the loop top).
		// Attempts run in PID order, so the first panic of the tick is
		// the lowest-PID one; it is the one the run reports.
		if m.cyclePanic == nil {
			m.cyclePanic = &CyclePanicError{PID: pid, Tick: m.tick, Value: v, Stack: debug.Stack()}
		}
		next = pid + 1
	}()
	inject := m.fiCycle.Mode() != faultinject.Off
	live := m.ps.alive
	for i := lo >> 6; i < len(live); i++ {
		w := live[i]
		if i == lo>>6 {
			w &^= uint64(1)<<(lo&63) - 1
		}
		for ; w != 0; w &= w - 1 {
			pid = i<<6 | bits.TrailingZeros64(w)
			m.intents[pid] = nil
			if !m.runnable(pid) {
				continue
			}
			if inject && m.fiCycle.FireKeyed(uint64(m.tick)<<32|uint64(pid)) {
				panic(faultinject.Injected{Point: "kernel.cycle"})
			}
			m.attemptOne(pid)
		}
	}
	return -1
}

// takeCyclePanic returns and clears the tick's pending cycle panic, if
// any. Called from Step after the attempt phase.
func (m *Machine) takeCyclePanic() *CyclePanicError {
	e := m.cyclePanic
	m.cyclePanic = nil
	return e
}

// ViolationKind classifies an adversary contract violation.
type ViolationKind int

const (
	// ViolationKillAll: the adversary failed every executing processor
	// in one tick, so no update cycle would have completed — a direct
	// breach of the Section 2.1 liveness rule.
	ViolationKillAll ViolationKind = iota + 1
	// ViolationNoRestart: every processor was dead and the adversary's
	// decision restarted none of them, leaving no processor that could
	// ever complete a cycle.
	ViolationNoRestart
)

// String implements fmt.Stringer for ViolationKind.
func (k ViolationKind) String() string {
	switch k {
	case ViolationKillAll:
		return "kill-all"
	case ViolationNoRestart:
		return "no-restart"
	default:
		return "invalid"
	}
}

// Violation records one adversary contract breach: the liveness rule of
// Section 2.1 ("at any time at least one processor is executing an
// update cycle that successfully completes") was violated at Tick.
// Violations distinguish an algorithm that livelocks under a legal
// schedule (V under the rotating thrasher stalls with zero violations)
// from an adversary that breaks the model (kill-all schedules are
// recorded here, with the offending tick, under either LegalityMode).
type Violation struct {
	Kind      ViolationKind
	Tick      int
	Adversary string
}

// String implements fmt.Stringer for Violation.
func (v Violation) String() string {
	return fmt.Sprintf("adversary %s violated the liveness rule at tick %d (%s)", v.Adversary, v.Tick, v.Kind)
}

// maxViolations caps the retained per-run violation records; the count
// keeps exact totals beyond it. A VetoSpare run against a pathological
// adversary can violate every tick, and keeping every record would turn
// a diagnostic into an allocation leak.
const maxViolations = 16

// recordViolation notes a liveness-rule breach at the current tick.
// Recording happens under both legality modes: ErrorOnIllegal also
// fails the run, VetoSpare repairs the schedule and keeps going, but
// either way the run's diagnostics show the adversary broke contract.
func (m *Machine) recordViolation(k ViolationKind) {
	m.violationCount++
	obsViolation()
	if len(m.violations) < maxViolations {
		m.violations = append(m.violations, Violation{Kind: k, Tick: m.tick, Adversary: m.adv.Name()})
	}
}

// Violations returns the recorded contract violations of the current
// run (at most maxViolations records; see ViolationCount for the exact
// total). The slice is owned by the machine and valid until Reset.
func (m *Machine) Violations() []Violation { return m.violations }

// ViolationCount returns the exact number of liveness-rule violations
// observed this run, including those beyond the retained records.
func (m *Machine) ViolationCount() int64 { return m.violationCount }

// resetRobustness re-arms the kernel.cycle failpoint from the process
// fault registry (faultinject.Active()) and clears the per-run
// diagnostics; called from Reset and RestoreSnapshot.
func (m *Machine) resetRobustness() {
	m.fiCycle = faultinject.Active().Point("kernel.cycle")
	m.cyclePanic = nil
	m.violations = m.violations[:0]
	m.violationCount = 0
}
