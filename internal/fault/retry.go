package fault

import (
	"context"
	"errors"
	"fmt"
	"syscall"
	"time"

	"clockrlc/internal/obs"
)

// Retry accounting: re-attempts performed and operations abandoned
// after exhausting their budget.
var (
	retryAttempts = obs.GetCounter("fault.retries")
	retryGiveups  = obs.GetCounter("fault.retry_giveups")
)

// IsTransient reports whether an error is worth retrying: anything
// marked ErrTransient (injected or wrapped by callers) plus the
// classic retryable POSIX errnos a loaded filesystem or process table
// produces. Corruption, validation failures and context cancellation
// are deliberately not transient — retrying them wastes the budget on
// a deterministic outcome.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrTransient) {
		return true
	}
	for _, e := range []syscall.Errno{
		syscall.EINTR, syscall.EAGAIN, syscall.EBUSY,
		syscall.ENFILE, syscall.EMFILE,
	} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// Policy is a capped exponential-backoff retry schedule with
// deterministic jitter. The zero value retries nothing; give real work
// a literal.
type Policy struct {
	// Attempts is the total attempt budget including the first try.
	Attempts int
	// Base is the first backoff; each further backoff multiplies by
	// Factor and is capped at Max.
	Base, Max time.Duration
	Factor    float64
	// Jitter spreads each backoff uniformly over ±Jitter·backoff,
	// decided deterministically from the operation name and the
	// attempt index so chaos runs replay exactly.
	Jitter float64
}

// Do runs fn until it succeeds, fails terminally, exhausts the
// attempt budget, or ctx is cancelled. Only transient errors (per
// IsTransient) are retried; the final error of an exhausted budget is
// wrapped with the operation name and attempt count. Backoff sleeps
// honour ctx, so cancellation interrupts a waiting retry immediately.
func (p Policy) Do(ctx context.Context, op string, fn func() error) error {
	if p.Attempts <= 0 {
		p.Attempts = 1
	}
	backoff := p.Base
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := fn()
		if err == nil {
			return nil
		}
		if !IsTransient(err) {
			return err
		}
		if attempt >= p.Attempts {
			retryGiveups.Inc()
			return fmt.Errorf("fault: %s failed after %d attempts: %w", op, attempt, err)
		}
		retryAttempts.Inc()
		d := backoff
		if p.Jitter > 0 {
			u := unit(0, Point(op), uint64(attempt))
			d = time.Duration(float64(d) * (1 - p.Jitter + 2*p.Jitter*u))
		}
		if d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
		backoff = time.Duration(float64(backoff) * p.Factor)
		if p.Max > 0 && backoff > p.Max {
			backoff = p.Max
		}
	}
}

// RetryStats reports the process-wide retry counters.
func RetryStats() (retries, giveups int64) {
	return retryAttempts.Value(), retryGiveups.Value()
}
