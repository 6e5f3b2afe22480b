// Package check is the extraction pipeline's physical-invariant
// engine. The on-disk cache already defends against bit-rot with
// SHA-256 checksums; this package defends against the failure mode
// checksums cannot see — *wrong but well-formed data*. A mis-generated
// table whose coupling coefficient k = |M|/√(L₁·L₂) exceeds 1, a
// spline overshoot that turns a self inductance negative, or a cascade
// whose series/parallel combination loses positivity all flow silently
// into simulation and produce confident, wrong delay and skew numbers.
// Production code marks the physically meaningful boundaries — table
// audits, lookups, segment composition, cascading, measured delays —
// with invariant checks that report here.
//
// The engine has three policies:
//
//   - Off:    every check site is a single atomic pointer load and a
//     nil branch (the same disarmed-hook design as internal/fault), so
//     the lookup hot path costs nothing measurable.
//   - Warn:   violations are counted (check.violations and
//     check.violations.<stage>) and execution continues.
//   - Strict: the first violation is returned as a named error
//     (matchable with errors.Is against ErrViolation) identifying the
//     stage, subject, cell and violated invariant.
package check

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"clockrlc/internal/obs"
)

// Policy selects what a reported violation does.
type Policy int

const (
	// Off disarms every check site; the hook is one atomic load.
	Off Policy = iota
	// Warn counts violations and continues.
	Warn
	// Strict converts the violation into a named error.
	Strict
)

func (p Policy) String() string {
	switch p {
	case Off:
		return "off"
	case Warn:
		return "warn"
	case Strict:
		return "strict"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy parses the -check flag values "off", "warn" and
// "strict" (case-insensitive).
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "off":
		return Off, nil
	case "warn":
		return Warn, nil
	case "strict":
		return Strict, nil
	}
	return Off, fmt.Errorf("check: bad policy %q (want off, warn or strict)", s)
}

// Stage names the pipeline boundary a violation was caught at. Stages
// are stable identifiers: metrics group by them
// (check.violations.<stage>) and strict errors carry them.
type Stage string

const (
	// StageTableAudit covers the post-build / post-load table audits.
	StageTableAudit Stage = "table_audit"
	// StageLookup covers the warm-path table lookups (SelfL/MutualL).
	StageLookup Stage = "lookup"
	// StageSegment covers per-segment RLC extraction and loop
	// composition.
	StageSegment Stage = "segment"
	// StageCascade covers Section IV series/parallel cascading.
	StageCascade Stage = "cascade"
	// StageSim covers simulation outputs and closed-form delay bounds.
	StageSim Stage = "sim"
	// StageCheckpoint covers resumed long-job state: statistics
	// restored from a checkpoint must still satisfy their own
	// invariants (min ≤ max, finite sums, consistent counts) before the
	// job continues accumulating onto them.
	StageCheckpoint Stage = "checkpoint"
)

// Violation accounting. The total plus one counter per stage flow
// through the same metrics surface as the rest of the pipeline
// (-metrics, /debug/vars), so a Warn run is observable after the fact.
var (
	violationsTotal = obs.GetCounter("check.violations")
	stageCounters   = map[Stage]*obs.Counter{
		StageTableAudit: obs.GetCounter("check.violations.table_audit"),
		StageLookup:     obs.GetCounter("check.violations.lookup"),
		StageSegment:    obs.GetCounter("check.violations.segment"),
		StageCascade:    obs.GetCounter("check.violations.cascade"),
		StageSim:        obs.GetCounter("check.violations.sim"),
		StageCheckpoint: obs.GetCounter("check.violations.checkpoint"),
	}
)

// Violations returns the process-wide count of reported invariant
// violations (all stages).
func Violations() int64 { return violationsTotal.Value() }

// StageViolations returns the process-wide violation count of one
// stage.
func StageViolations(st Stage) int64 {
	if c, ok := stageCounters[st]; ok {
		return c.Value()
	}
	return obs.GetCounter("check.violations." + string(st)).Value()
}

// ErrViolation is the sentinel every strict-mode violation unwraps to.
var ErrViolation = errors.New("check: physical invariant violated")

// Violation is one observed breach of a physical invariant. It is an
// error; under Strict it is returned to the caller, under Warn it is
// only counted.
type Violation struct {
	// Stage is the pipeline boundary the breach was caught at.
	Stage Stage
	// Invariant names the violated law, e.g. "mutual coupling k < 1".
	Invariant string
	// Subject identifies the object, e.g. the table set or segment name.
	Subject string
	// Cell pins the offending entry, e.g. "mutual[2,3,1,0] (w1=…)".
	Cell string
	// Detail carries the observed values, e.g. "k = 1.73".
	Detail string
}

func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "check: %s: invariant %q violated", v.Stage, v.Invariant)
	if v.Subject != "" {
		fmt.Fprintf(&b, " in %s", v.Subject)
	}
	if v.Cell != "" {
		fmt.Fprintf(&b, " at %s", v.Cell)
	}
	if v.Detail != "" {
		fmt.Fprintf(&b, ": %s", v.Detail)
	}
	return b.String()
}

// Unwrap makes every violation match errors.Is(err, ErrViolation).
func (v *Violation) Unwrap() error { return ErrViolation }

// Engine applies one policy to reported violations. A nil engine is
// valid and permanently disarmed, so check sites can hold the result
// of Active() without nil tests. One engine may be used concurrently
// from any number of goroutines (it is immutable after construction).
type Engine struct {
	policy Policy
}

// New returns an engine enforcing policy p. New(Off) is an explicitly
// disarmed engine — useful to override a stricter process-wide policy
// for one extractor.
func New(p Policy) *Engine { return &Engine{policy: p} }

// Policy reports the engine's policy; nil-safe (Off).
func (e *Engine) Policy() Policy {
	if e == nil {
		return Off
	}
	return e.policy
}

// Armed reports whether the engine enforces anything; nil-safe. Check
// sites guard their (possibly expensive) invariant evaluation with
// this so a disarmed pipeline pays only the Active() load.
func (e *Engine) Armed() bool { return e != nil && e.policy != Off }

// Report records one violation under the engine's policy: counted
// always (when armed), returned as the error under Strict, nil under
// Warn. A disarmed or nil engine ignores the report.
func (e *Engine) Report(v *Violation) error {
	if !e.Armed() {
		return nil
	}
	violationsTotal.Inc()
	if c, ok := stageCounters[v.Stage]; ok {
		c.Inc()
	} else {
		obs.GetCounter("check.violations." + string(v.Stage)).Inc()
	}
	if e.policy == Strict {
		return v
	}
	return nil
}

// ReportAll records a batch of violations, returning the first strict
// error (all violations are counted either way).
func (e *Engine) ReportAll(vs []Violation) error {
	if !e.Armed() {
		return nil
	}
	var first error
	for i := range vs {
		if err := e.Report(&vs[i]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// active is the process-wide engine. nil (the production default)
// makes every check site a pointer load and a branch — the same
// disarmed-hook pattern as internal/fault.
var active atomic.Pointer[Engine]

// SetPolicy arms the process-wide engine with policy p. Off stores
// nil, restoring the zero-cost path.
func SetPolicy(p Policy) {
	if p == Off {
		active.Store(nil)
		return
	}
	active.Store(New(p))
}

// Active returns the process-wide engine: nil (disarmed) unless a
// policy was set. The single atomic load here is the entire cost a
// disarmed check site pays.
func Active() *Engine { return active.Load() }

// Enabled reports whether the process-wide engine is armed.
func Enabled() bool { return Active().Armed() }
