package serve

import (
	"fmt"
	"time"
)

// The cold-build circuit breaker protects the one catastrophically
// expensive operation the daemon has — a full field-solver sweep (or a
// cache load) behind a registry miss. A solver that fails once under
// load will almost certainly fail again milliseconds later; without a
// breaker every queued cold request re-runs the sweep and the host
// spends its capacity discovering the same failure. The breaker turns
// that stampede into one fast 503 + Retry-After per caller.
//
// States follow the classic pattern: closed (counting consecutive
// failures) → open (every acquire of the key short-circuits until the
// cooldown expires) → half-open (exactly one probe fill is admitted;
// its outcome closes or re-opens the breaker).
//
// Failures are counted per caller observation, not per fill attempt:
// when 32 coalesced cold requests share one failed fill, all 32
// record a failure. That keeps the trip deterministic under the
// registry's single-flighting (any interleaving of fills and waiters
// yields at least min(callers, threshold) observations) and trips
// faster exactly when concurrent demand — the stampede the breaker
// exists to stop — is highest. Context cancellations never count: a
// caller giving up says nothing about solver health.

type breakerState int

const (
	bkClosed breakerState = iota
	bkOpen
	bkHalfOpen
)

// breaker is one key's circuit state. It holds no lock of its own:
// every access happens under the registry's mutex, which the registry
// already takes on the miss/fill paths the breaker guards.
type breaker struct {
	threshold int           // consecutive failures to open
	cooldown  time.Duration // open → half-open delay
	state     breakerState
	failures  int
	until     time.Time // while open: when a half-open probe is allowed
}

// allow reports whether a fill may proceed. While open it returns the
// remaining cooldown as the Retry-After hint; once the cooldown has
// expired it transitions to half-open and admits exactly one probe
// (probe=true) — concurrent callers keep short-circuiting until the
// probe resolves.
func (b *breaker) allow(now time.Time) (ok bool, retryAfter time.Duration, probe bool) {
	switch b.state {
	case bkOpen:
		if now.Before(b.until) {
			return false, b.until.Sub(now), false
		}
		b.state = bkHalfOpen
		return true, 0, true
	case bkHalfOpen:
		// A probe is in flight; its outcome decides the state.
		return false, b.cooldown, false
	}
	return true, 0, false
}

// success records a completed fill (or probe): the circuit closes and
// the consecutive-failure count resets.
func (b *breaker) success() {
	b.state = bkClosed
	b.failures = 0
}

// failure records one caller-observed fill failure and reports whether
// this observation tripped the breaker open. A failed half-open probe
// re-opens for another full cooldown (and counts as a trip); failures
// observed while already open (late waiters on a pre-trip fill) are
// ignored.
func (b *breaker) failure(now time.Time) (tripped bool) {
	switch b.state {
	case bkHalfOpen:
		b.state = bkOpen
		b.until = now.Add(b.cooldown)
		return true
	case bkClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = bkOpen
			b.until = now.Add(b.cooldown)
			return true
		}
	}
	return false
}

// BreakerOpenError is returned by Registry.Acquire while a key's
// circuit is open: the cold build is known-failing and was not
// attempted. It maps to 503 + Retry-After at the HTTP layer.
type BreakerOpenError struct {
	Key        string
	RetryAfter time.Duration
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("serve: table build circuit open for %.16s… (retry in %s)", e.Key, e.RetryAfter.Round(time.Millisecond))
}

// FillError wraps a cold-fill failure (a build or cache-load error
// that is the server's problem, not the request's): callers should
// back off and retry, so it maps to 503 + Retry-After.
type FillError struct {
	Err        error
	RetryAfter time.Duration
}

func (e *FillError) Error() string { return "serve: cold table build failed: " + e.Err.Error() }
func (e *FillError) Unwrap() error { return e.Err }
