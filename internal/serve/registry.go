// Package serve is the extraction daemon's in-process layer: a
// refcounted registry of table sets over the
// content-addressed cache, and the HTTP/JSON server that drives
// core's batch extraction through it. One resident process amortises
// the mmap/open cost of a table library across every request — the
// way a CTS flow drives extraction as a service rather than forking a
// CLI per net — while the registry's lifecycle discipline (acquire /
// release / munmap-on-evict) keeps the daemon's mapping count bounded
// where the one-shot CLIs could afford to leak until exit.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clockrlc/internal/fault"
	"clockrlc/internal/obs"
	"clockrlc/internal/table"
)

// Registry accounting: hits serve an already-resident set, misses
// fill from the cache (or a build), evictions count sets pushed out
// by the capacity bound, and open_sets gauges the resident count.
// breaker_open counts circuit trips (closed/half-open → open),
// breaker_probes counts half-open probe fills admitted, and
// breaker_rejected counts acquires short-circuited by an open
// circuit.
var (
	regHits       = obs.GetCounter("serve.registry_hits")
	regMisses     = obs.GetCounter("serve.registry_misses")
	regEvicts     = obs.GetCounter("serve.registry_evictions")
	regOpen       = obs.GetGauge("serve.registry_open_sets")
	regBkOpens    = obs.GetCounter("serve.breaker_open")
	regBkProbes   = obs.GetCounter("serve.breaker_probes")
	regBkRejected = obs.GetCounter("serve.breaker_rejected")
)

// openSets backs the open_sets gauge (obs gauges are set-only).
var openSets atomic.Int64

func openSetsAdd(d int64) { regOpen.Set(float64(openSets.Add(d))) }

// Registry is an in-memory layer over the content-addressed table
// cache. Entries are keyed by table.CacheKey and refcounted: Acquire
// pins a set, the returned release unpins it, and an evicted set is
// closed (its mapping released) only when the last holder releases —
// so an in-flight request can never have its spline coefficients
// unmapped underneath it. One mutex guards the entries, their
// least-recently-used order and the breakers; an acquire holds it for
// a map lookup and a refcount.
type Registry struct {
	cache   *table.Cache
	maxSets int // max resident entries; 0 = unbounded
	bkFails int // consecutive fill failures to open a key's breaker; 0 = disabled
	bkCool  time.Duration
	now     func() time.Time

	mu      sync.Mutex
	clock   int64 // last lastUse stamp handed out: the LRU order
	entries map[string]*regEntry
	// breakers outlive entries: a failed fill removes its entry (so
	// the key stays retryable) but the key's failure history must
	// persist to trip the circuit.
	breakers map[string]*breaker
}

// regEntry is one resident (or filling) table set. ready is closed
// when fill completes; set/err are immutable afterwards. refs counts
// holders: the map itself holds no reference — eviction removes the
// entry from the map, marks it evicted, and the last release closes
// the set.
type regEntry struct {
	key     string
	ready   chan struct{}
	set     *table.Set
	err     error
	refs    int
	evicted bool
	lastUse int64
}

// RegistryOptions parameterises a registry.
type RegistryOptions struct {
	// Cache may be nil: misses then build in memory without
	// persistence.
	Cache *table.Cache
	// MaxSets bounds the resident set count: a miss that would hold
	// more evicts the least recently used entry. 0 means unbounded.
	MaxSets int
	// BreakerFailures opens a key's cold-build circuit after that many
	// consecutive caller-observed fill failures; 0 disables the
	// breaker.
	BreakerFailures int
	// BreakerCooldown is how long an open circuit short-circuits
	// acquires before admitting one half-open probe (default 5s).
	BreakerCooldown time.Duration
	// Now overrides the breaker's clock (tests); nil means time.Now.
	Now func() time.Time
}

// NewRegistry builds a registry from opts.
func NewRegistry(opts RegistryOptions) *Registry {
	r := &Registry{
		cache:    opts.Cache,
		maxSets:  opts.MaxSets,
		bkFails:  opts.BreakerFailures,
		bkCool:   opts.BreakerCooldown,
		now:      opts.Now,
		entries:  map[string]*regEntry{},
		breakers: map[string]*breaker{},
	}
	if r.bkFails > 0 && r.bkCool <= 0 {
		r.bkCool = 5 * time.Second
	}
	if r.now == nil {
		r.now = time.Now
	}
	return r
}

// Acquire returns the resident set for (cfg, axes), filling it from
// the cache (single-flighted there, and deduplicated again here so
// one registry never issues two concurrent fills of one key) on first
// use. The returned release must be called exactly once when the
// request is done with the set; it is safe to call from any
// goroutine, and calling it again is a no-op.
func (r *Registry) Acquire(ctx context.Context, cfg table.Config, axes table.Axes) (*table.Set, func(), error) {
	key, err := table.CacheKey(cfg, axes)
	if err != nil {
		return nil, nil, err
	}

	r.mu.Lock()
	if e, ok := r.entries[key]; ok {
		e.refs++
		r.clock++
		e.lastUse = r.clock
		r.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			r.releaseEntry(e)
			return nil, nil, ctx.Err()
		}
		if e.err != nil {
			// The filler already removed the failed entry from the map;
			// drop our reference and record our own observation of the
			// failure — under coalescing every disappointed waiter
			// counts, which is what makes the trip deterministic.
			r.releaseEntry(e)
			return nil, nil, r.fillFailed(key, e.err, false)
		}
		regHits.Inc()
		return e.set, r.releaseFunc(e), nil
	}

	// Miss: consult the key's breaker, insert a filling entry, evict
	// over capacity, then fill outside the lock so other keys stay
	// acquirable.
	probe := false
	if r.bkFails > 0 {
		b := r.breakerLocked(key)
		ok, retryAfter, p := b.allow(r.now())
		if !ok {
			r.mu.Unlock()
			regBkRejected.Inc()
			return nil, nil, &BreakerOpenError{Key: key, RetryAfter: retryAfter}
		}
		probe = p
	}
	r.clock++
	e := &regEntry{key: key, ready: make(chan struct{}), refs: 1, lastUse: r.clock}
	r.entries[key] = e
	victims := r.evictOverCapLocked(e)
	r.mu.Unlock()
	for _, v := range victims {
		v.Close()
	}
	regMisses.Inc()
	if probe {
		regBkProbes.Inc()
	}

	set, err := r.fill(ctx, cfg, axes)
	e.set, e.err = set, err
	if err != nil {
		r.mu.Lock()
		if r.entries[key] == e {
			delete(r.entries, key)
		}
		e.evicted = true
		r.mu.Unlock()
		close(e.ready)
		r.releaseEntry(e)
		return nil, nil, r.fillFailed(key, err, probe)
	}
	r.fillSucceeded(key)
	openSetsAdd(1)
	close(e.ready)
	return set, r.releaseFunc(e), nil
}

// breakerLocked returns the key's breaker, creating it on first use.
// Caller holds r.mu.
func (r *Registry) breakerLocked(key string) *breaker {
	b, ok := r.breakers[key]
	if !ok {
		b = &breaker{threshold: r.bkFails, cooldown: r.bkCool}
		r.breakers[key] = b
	}
	return b
}

// fillFailed records one caller-observed fill failure against the
// key's breaker and wraps the error for the HTTP layer. Cancellations
// pass through unwrapped and uncounted: a caller giving up says
// nothing about solver health, and a draining daemon must not trip
// its own breakers. A cancelled half-open probe re-arms the breaker
// open with an expired cooldown so the very next acquire probes again
// — never stranding the key in the probe-in-flight state.
func (r *Registry) fillFailed(key string, err error, probe bool) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if probe && r.bkFails > 0 {
			r.mu.Lock()
			if b, ok := r.breakers[key]; ok && b.state == bkHalfOpen {
				b.state = bkOpen
				b.until = r.now()
			}
			r.mu.Unlock()
		}
		return err
	}
	if r.bkFails > 0 {
		r.mu.Lock()
		tripped := r.breakerLocked(key).failure(r.now())
		r.mu.Unlock()
		if tripped {
			regBkOpens.Inc()
		}
	}
	return &FillError{Err: err, RetryAfter: r.retryAfterHint()}
}

// fillSucceeded closes the key's breaker (resetting its
// consecutive-failure count).
func (r *Registry) fillSucceeded(key string) {
	if r.bkFails <= 0 {
		return
	}
	r.mu.Lock()
	if b, ok := r.breakers[key]; ok {
		b.success()
	}
	r.mu.Unlock()
}

// retryAfterHint is the backoff a failed cold build suggests to
// clients: the breaker cooldown when armed, else one second.
func (r *Registry) retryAfterHint() time.Duration {
	if r.bkCool > 0 {
		return r.bkCool
	}
	return time.Second
}

// OpenBreakers counts keys whose cold-build circuit is currently open
// (half-open probes in flight are not counted: the key is being
// retested). Surfaced on /healthz for operators and load balancers.
func (r *Registry) OpenBreakers() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, b := range r.breakers {
		if b.state == bkOpen {
			n++
		}
	}
	return n
}

// fill loads or builds the set. The cache path is single-flighted
// across the whole process; the direct build path is only reached
// when the registry was constructed without a cache.
func (r *Registry) fill(ctx context.Context, cfg table.Config, axes table.Axes) (*table.Set, error) {
	if err := fault.Check(fault.ServeFill); err != nil {
		return nil, err
	}
	if r.cache != nil {
		return r.cache.GetOrBuildCtx(ctx, cfg, axes)
	}
	return table.BuildCtx(ctx, cfg, axes)
}

// releaseFunc wraps releaseEntry in a once so a double release (a
// handler's defer racing an error path, say) can never unpin an
// entry twice.
func (r *Registry) releaseFunc(e *regEntry) func() {
	var once sync.Once
	return func() { once.Do(func() { r.releaseEntry(e) }) }
}

// releaseEntry unpins e and closes its set when it was evicted and
// this was the last holder.
func (r *Registry) releaseEntry(e *regEntry) {
	r.mu.Lock()
	e.refs--
	dead := e.evicted && e.refs == 0
	r.mu.Unlock()
	if dead && e.set != nil {
		e.set.Close()
		openSetsAdd(-1)
	}
}

// evictOverCapLocked removes least-recently-used entries until the
// registry is within maxSets, never evicting keep. It returns the sets
// that can be closed immediately (no holders); entries still
// referenced close at their last release. Caller holds r.mu.
func (r *Registry) evictOverCapLocked(keep *regEntry) []*table.Set {
	if r.maxSets <= 0 {
		return nil
	}
	var closable []*table.Set
	for len(r.entries) > r.maxSets {
		var victim *regEntry
		for _, e := range r.entries {
			if e == keep {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return closable
		}
		delete(r.entries, victim.key)
		victim.evicted = true
		regEvicts.Inc()
		if victim.refs == 0 {
			select {
			case <-victim.ready:
				if victim.set != nil {
					closable = append(closable, victim.set)
					openSetsAdd(-1)
				}
			default:
				// Still filling with zero holders cannot happen: the
				// filler holds a reference until fill completes.
			}
		}
	}
	return closable
}

// Len reports the resident entry count.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Close evicts every entry, closing each set as its last holder
// releases (immediately, for unreferenced entries). Acquire may still
// be called afterwards — the registry simply refills — so Close is
// also usable as a flush.
func (r *Registry) Close() error {
	r.mu.Lock()
	var drop []*regEntry
	for key, e := range r.entries {
		delete(r.entries, key)
		e.evicted = true
		if e.refs == 0 {
			drop = append(drop, e)
		}
	}
	r.mu.Unlock()
	var first error
	for _, e := range drop {
		select {
		case <-e.ready:
		default:
			continue // filling entries close via their filler's release
		}
		if e.set != nil {
			if err := e.set.Close(); err != nil && first == nil {
				first = fmt.Errorf("serve: close %s: %w", e.key, err)
			}
			openSetsAdd(-1)
		}
	}
	return first
}
