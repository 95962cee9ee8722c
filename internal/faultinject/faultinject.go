// Package faultinject provides deterministic fault injection for the
// robustness tests of the sweep runtime and the trace reader.
//
// A *fault point* is a named site in production code (e.g. "experiment/job",
// "trace/open") that consults this package before doing its real work.  A
// test arms a Plan — a set of Specs, each binding a point to an outcome
// (error, panic, or delay) and a trigger schedule (skip the first N hits,
// then every Mth, at most K times, optionally thinned by a seeded Bernoulli
// draw) — runs the code under test, and disarms.  Schedules are counted and
// seeded, never clocked, so a given plan injects exactly the same faults at
// the same hits on every run: the recovery paths above (panic containment,
// retry/backoff, cancellation) are exercised reproducibly instead of
// trusted.
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
	"time"
)

// Kind selects the outcome of an injected fault.
type Kind uint8

const (
	// KindError makes Hit return an injected *Error.
	KindError Kind = iota
	// KindPanic makes Hit panic with an *Error value.
	KindPanic
	// KindDelay makes Hit sleep for Spec.Delay, then return nil.
	KindDelay
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Spec binds one fault point to an outcome and a trigger schedule.  A hit
// triggers when its 1-based sequence number n satisfies n > After and
// (n-After-1) is a multiple of Every (Every 0 or 1 = every eligible hit),
// the spec has triggered fewer than Times times (Times 0 = unlimited), and
// the seeded Bernoulli draw passes (Prob 0 means 1.0 — always).
type Spec struct {
	// Point is the fault-point name this spec arms.
	Point string
	// Kind selects error, panic or delay.
	Kind Kind
	// After skips the first After hits of the point.
	After uint64
	// Every triggers one hit in Every eligible ones (0 or 1 = all).
	Every uint64
	// Times bounds total triggers (0 = unlimited).
	Times uint64
	// Prob thins eligible hits with a seeded deterministic draw in (0,1];
	// 0 means 1.0.
	Prob float64
	// Msg is the injected error/panic message ("injected" when empty).
	Msg string
	// Transient marks the injected error retryable for retry policies that
	// classify via the Transient() interface.
	Transient bool
	// Delay is the sleep of a KindDelay spec.
	Delay time.Duration
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

// Plan is a set of specs armed together under one jitter seed.
type Plan struct {
	// Seed drives the Prob draws; two runs with the same plan see identical
	// trigger schedules.
	Seed  uint64
	Specs []Spec
}

// armedSpec is one spec plus its live counters.
type armedSpec struct {
	spec      Spec
	seed      uint64
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
// with an empty point name or a Prob outside [0, 1].
func Arm(p Plan) error {
	ap := &armedPlan{points: make(map[string][]*armedSpec, len(p.Specs))}
	for i, s := range p.Specs {
		if s.Point == "" {
			return fmt.Errorf("faultinject: spec %d has an empty point name", i)
		}
		if s.Prob < 0 || s.Prob > 1 {
			return fmt.Errorf("faultinject: spec %d Prob %v outside [0,1]", i, s.Prob)
		}
		if s.Msg == "" {
			s.Msg = "injected"
		}
		ap.points[s.Point] = append(ap.points[s.Point], &armedSpec{spec: s, seed: p.Seed + uint64(i)*0x9e3779b97f4a7c15})
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
// for a KindPanic one, sleeps for a KindDelay one, and returns nil when
// nothing triggers (or nothing is armed).
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
		if !as.eligible(n) {
			continue
		}
		if as.spec.Times != 0 && as.triggered.Add(1) > as.spec.Times {
			continue
		}
		switch as.spec.Kind {
		case KindPanic:
			panic(&Error{Point: point, Msg: as.spec.Msg, IsTransient: as.spec.Transient})
		case KindDelay:
			time.Sleep(as.spec.Delay)
		default:
			return &Error{Point: point, Msg: as.spec.Msg, IsTransient: as.spec.Transient}
		}
	}
	return nil
}

// eligible applies the counted schedule and the seeded draw to hit n.
func (as *armedSpec) eligible(n uint64) bool {
	if n <= as.spec.After {
		return false
	}
	if e := as.spec.Every; e > 1 && (n-as.spec.After-1)%e != 0 {
		return false
	}
	if p := as.spec.Prob; p > 0 && p < 1 {
		u := splitmix64(as.seed ^ n)
		if float64(u>>11)/float64(1<<53) >= p {
			return false
		}
	}
	return true
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

// splitmix64 is the SplitMix64 mixer; counter-seeded, so trigger draws are a
// pure function of (plan seed, spec index, hit number).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
