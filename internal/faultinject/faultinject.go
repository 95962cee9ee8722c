// Package faultinject provides deterministic fault injection for the
// robustness tests of the sweep runtime and the trace reader.
//
// A *fault point* is a named site in production code (e.g. "experiment/job",
// "trace/open") that consults this package before doing its real work.  A
// test arms a Plan — a set of Specs, each binding a point to an outcome
// (error or panic) and a trigger schedule (skip the first N hits, then
// trigger at most K times) — runs the code under test, and disarms.
// Schedules are counted, never clocked or drawn, so a given plan injects
// exactly the same faults at the same hits on every run: the recovery paths
// above (panic containment, retry/backoff, cancellation) are exercised
// reproducibly instead of trusted.
//
// Disarmed cost: call sites guard with
//
//	if faultinject.Enabled() {
//		if err := faultinject.Hit("point"); err != nil { ... }
//	}
//
// Enabled is an inlinable atomic bool load — one flag check, no call, no
// allocation — so instrumented hot paths (the trace reader's chunk loop, the
// worker job boundary) stay inside the repo's 0-allocs/op guards.  Hit is
// only reached while a plan is armed.
//
// Arming is process-global and meant for tests; concurrent readers are safe
// (the plan is published through an atomic pointer and per-spec counters are
// atomic), but tests that arm different plans must not run in parallel with
// each other.
package faultinject

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Kind selects the outcome of an injected fault.
type Kind uint8

const (
	// KindError makes Hit return an injected *Error.
	KindError Kind = iota
	// KindPanic makes Hit panic with an *Error value.
	KindPanic
)

// Spec binds one fault point to an outcome and a trigger schedule.  A hit
// triggers when its 1-based sequence number n satisfies n > After and the
// spec has triggered fewer than Times times (Times 0 = unlimited).
type Spec struct {
	// Point is the fault-point name this spec arms.
	Point string
	// Kind selects error or panic.
	Kind Kind
	// After skips the first After hits of the point.
	After uint64
	// Times bounds total triggers (0 = unlimited).
	Times uint64
	// Msg is the injected error/panic message ("injected" when empty).
	Msg string
	// Transient marks the injected error retryable for retry policies that
	// classify via the Transient() interface.
	Transient bool
}

// ErrInjected is the sentinel every injected error wraps, so tests can
// assert an observed failure came from the harness with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Error is an injected failure (also the panic value of KindPanic specs).
type Error struct {
	// Point is the fault point that fired.
	Point string
	// Msg is the spec's message.
	Msg string
	// IsTransient mirrors the spec's Transient flag.
	IsTransient bool
}

// Error renders the injected failure.
func (e *Error) Error() string { return fmt.Sprintf("faultinject: %s: %s", e.Point, e.Msg) }

// Unwrap ties every injected error to ErrInjected.
func (e *Error) Unwrap() error { return ErrInjected }

// Transient implements the classification interface retry policies use.
func (e *Error) Transient() bool { return e.IsTransient }

// Plan is a set of specs armed together.
type Plan struct {
	Specs []Spec
}

// armedSpec is one spec plus its live counters.
type armedSpec struct {
	spec      Spec
	hits      atomic.Uint64
	triggered atomic.Uint64
}

// armedPlan indexes the armed specs by point name.
type armedPlan struct {
	points map[string][]*armedSpec
}

var (
	enabled atomic.Bool
	current atomic.Pointer[armedPlan]
)

// Enabled reports whether a plan is armed.  It is the disarmed-path guard:
// a single atomic load that inlines into call sites.
func Enabled() bool { return enabled.Load() }

// Arm publishes the plan, replacing any previous one.  It rejects specs
// with an empty point name.
func Arm(p Plan) error {
	ap := &armedPlan{points: make(map[string][]*armedSpec, len(p.Specs))}
	for i, s := range p.Specs {
		if s.Point == "" {
			return fmt.Errorf("faultinject: spec %d has an empty point name", i)
		}
		if s.Msg == "" {
			s.Msg = "injected"
		}
		ap.points[s.Point] = append(ap.points[s.Point], &armedSpec{spec: s})
	}
	current.Store(ap)
	enabled.Store(true)
	return nil
}

// Disarm removes the armed plan; subsequent Enabled calls return false.
func Disarm() {
	enabled.Store(false)
	current.Store(nil)
}

// Hit records one arrival at the named fault point and applies the armed
// plan: it returns the injected error of a triggering KindError spec, panics
// for a KindPanic one, and returns nil when nothing triggers (or nothing is
// armed).
func Hit(point string) error {
	ap := current.Load()
	if ap == nil {
		return nil
	}
	specs := ap.points[point]
	if specs == nil {
		return nil
	}
	for _, as := range specs {
		n := as.hits.Add(1) // 1-based hit number, per spec
		if n <= as.spec.After {
			continue
		}
		if as.spec.Times != 0 && as.triggered.Add(1) > as.spec.Times {
			continue
		}
		err := &Error{Point: point, Msg: as.spec.Msg, IsTransient: as.spec.Transient}
		if as.spec.Kind == KindPanic {
			panic(err)
		}
		return err
	}
	return nil
}

// Hits returns how many times the named point was reached since Arm (summed
// over its specs' schedules is meaningless, so this reports the first
// spec's counter — every spec of a point counts every hit identically).
func Hits(point string) uint64 {
	ap := current.Load()
	if ap == nil {
		return 0
	}
	specs := ap.points[point]
	if len(specs) == 0 {
		return 0
	}
	return specs[0].hits.Load()
}
