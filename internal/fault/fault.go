// Package fault provides the extraction pipeline's fault-injection
// points and its retry machinery. Production code marks the places
// where the outside world can fail — field-solver calls, cache I/O,
// spline lookups — with fault.Check(point); a test (or a chaos run)
// registers an Injector that deterministically converts chosen calls
// into errors, added latency, or panics. When no injector is
// registered the hook is a single atomic pointer load and a nil
// branch, so the instrumented hot paths cost nothing measurable.
//
// Determinism matters more than realism here: every injection
// decision is a pure function of (seed, point, per-point call index),
// so a failing chaos run replays exactly with the same seed, under
// -race, at any worker count.
package fault

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"clockrlc/internal/obs"
)

// Injection accounting: how many calls each mode converted. The
// counters make chaos runs observable through the same metrics
// surface as production work (-metrics, /debug/vars).
var (
	injectedErrors = obs.GetCounter("fault.injected_errors")
	injectedPanics = obs.GetCounter("fault.injected_panics")
	injectedDelays = obs.GetCounter("fault.injected_delays")
)

// Point names one instrumented failure site. Points are stable
// identifiers: tests select them by value and metrics dashboards
// group by them.
type Point string

// The pipeline's injection points.
const (
	// SolverCall guards every field-engine solve of a table sweep
	// entry (self and mutual).
	SolverCall Point = "table.solver"
	// CacheRead guards loading a table set from the on-disk cache.
	CacheRead Point = "table.cache.read"
	// CacheWrite guards persisting a built table set to the cache.
	CacheWrite Point = "table.cache.write"
	// SplineLookup guards the warm-path table lookups (SelfL/MutualL).
	SplineLookup Point = "table.lookup"
	// ServeAdmit guards request admission in the extraction daemon: an
	// injected error forces a shed (429) without consuming capacity.
	ServeAdmit Point = "serve.admit"
	// ServeFill guards a registry fill — the daemon's one
	// catastrophically expensive cold path (table build or cache load).
	// Injected errors count toward the cold-build circuit breaker.
	ServeFill Point = "serve.fill"
	// ServeRespond guards response encoding in the daemon's handlers;
	// panic mode here exercises the handler-wrapper recovery.
	ServeRespond Point = "serve.respond"
	// CkptWrite guards persisting a long-job checkpoint record; an
	// injected error must leave the previous checkpoint generation
	// intact and the job running.
	CkptWrite Point = "ckpt.write"
	// CkptRead guards loading a checkpoint record on resume; an
	// injected error degrades to an older generation or a clean
	// restart, never a wrong answer.
	CkptRead Point = "ckpt.read"
)

// Mode selects what a firing rule does to the call.
type Mode int

const (
	// ModeError makes the call return an injected error.
	ModeError Mode = iota
	// ModeLatency delays the call by Rule.Delay and lets it proceed.
	ModeLatency
	// ModePanic panics with an *InjectedPanic.
	ModePanic
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModeLatency:
		return "latency"
	case ModePanic:
		return "panic"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ErrInjected is the default error ModeError rules return; injected
// errors always unwrap to it unless the rule supplies its own Err.
var ErrInjected = errors.New("fault: injected error")

// ErrTransient marks an error as transient: worth retrying with
// backoff. Injected errors carry it when Rule.Transient is set;
// IsTransient also recognises the retryable POSIX errnos.
var ErrTransient = errors.New("fault: transient")

// InjectedPanic is the value ModePanic rules panic with.
type InjectedPanic struct {
	Point Point
	Call  uint64
}

func (p *InjectedPanic) String() string {
	return fmt.Sprintf("fault: injected panic at %s (call %d)", p.Point, p.Call)
}

// Rule arms one injection behaviour at one point. Exactly one of the
// selectors applies: Nth fires on the Nth call (1-based) at the
// point; otherwise Prob fires each call with that probability,
// decided deterministically from the injector seed and the call
// index (Prob >= 1 fires every call). Times, when positive, caps the
// total number of firings.
type Rule struct {
	Point Point
	Mode  Mode
	Nth   int
	Prob  float64
	Times int
	// Err overrides the injected error (ModeError); nil injects
	// ErrInjected. Transient additionally wraps it in ErrTransient so
	// the retry layer will re-attempt it.
	Err       error
	Transient bool
	// Delay is the added latency for ModeLatency (default 1ms).
	Delay time.Duration
}

type armedRule struct {
	Rule
	fired atomic.Int64
}

// Injector evaluates a rule set at every instrumented point. One
// injector may be hit concurrently from any number of goroutines.
type Injector struct {
	seed  int64
	rules []*armedRule
	calls map[Point]*atomic.Uint64
}

// NewInjector compiles a deterministic injector from a seed and a
// rule set.
func NewInjector(seed int64, rules ...Rule) *Injector {
	in := &Injector{seed: seed, calls: make(map[Point]*atomic.Uint64)}
	for _, r := range rules {
		in.rules = append(in.rules, &armedRule{Rule: r})
		if _, ok := in.calls[r.Point]; !ok {
			in.calls[r.Point] = new(atomic.Uint64)
		}
	}
	return in
}

// Calls reports how many times a point has been hit on this injector.
func (in *Injector) Calls(pt Point) uint64 {
	if c, ok := in.calls[pt]; ok {
		return c.Load()
	}
	return 0
}

// active is the process-wide injector. nil (the production state)
// makes every Check a pointer load and a branch.
var active atomic.Pointer[Injector]

// Register arms an injector process-wide, replacing any previous one.
// Registering nil is equivalent to Reset.
func Register(in *Injector) { active.Store(in) }

// Reset disarms injection; every Check returns to the no-op path.
func Reset() { active.Store(nil) }

// Enabled reports whether an injector is currently registered.
func Enabled() bool { return active.Load() != nil }

// Check is the hook compiled into each instrumented site. With no
// injector registered it returns nil immediately; otherwise the
// registered rules decide whether this call errors, sleeps, or
// panics.
func Check(pt Point) error {
	in := active.Load()
	if in == nil {
		return nil
	}
	return in.check(pt)
}

func (in *Injector) check(pt Point) error {
	ctr, ok := in.calls[pt]
	if !ok {
		return nil
	}
	n := ctr.Add(1)
	for _, r := range in.rules {
		if r.Point != pt {
			continue
		}
		fire := false
		switch {
		case r.Nth > 0:
			fire = n == uint64(r.Nth)
		case r.Prob >= 1:
			fire = true
		case r.Prob > 0:
			fire = unit(in.seed, pt, n) < r.Prob
		}
		if !fire {
			continue
		}
		if r.Times > 0 && r.fired.Add(1) > int64(r.Times) {
			continue
		}
		switch r.Mode {
		case ModeLatency:
			injectedDelays.Inc()
			d := r.Delay
			if d <= 0 {
				d = time.Millisecond
			}
			time.Sleep(d)
		case ModePanic:
			injectedPanics.Inc()
			panic(&InjectedPanic{Point: pt, Call: n})
		default:
			injectedErrors.Inc()
			err := r.Err
			if err == nil {
				err = ErrInjected
			}
			if r.Transient {
				err = fmt.Errorf("%w: %w", ErrTransient, err)
			}
			return fmt.Errorf("fault: injected at %s (call %d): %w", pt, n, err)
		}
	}
	return nil
}

// unit maps (seed, point, call index) to a uniform value in [0, 1)
// with an FNV mix and the splitmix64 finalizer — deterministic across
// runs, platforms and goroutine schedules.
func unit(seed int64, pt Point, n uint64) float64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(pt); i++ {
		h = (h ^ uint64(pt[i])) * 0x100000001b3
	}
	h ^= n * 0xff51afd7ed558ccd
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}
