// Package serve is the extraction daemon's in-process layer: a
// bounded LRU registry of table sets over the content-addressed cache,
// and the HTTP/JSON server that drives core's batch extraction through
// it. One resident process amortises the open cost of a table library
// across every request — the way a CTS flow drives extraction as a
// service rather than forking a CLI per net.
package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"clockrlc/internal/fault"
	"clockrlc/internal/obs"
	"clockrlc/internal/table"
)

// Registry accounting: hits serve an already-resident set, misses
// fill from the cache (or a build), evictions count entries pushed out
// by the capacity bound, and open_sets gauges the resident entries.
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

// openSets backs the open_sets gauge (obs gauges are set-only); it
// sums every registry's entries.
var openSets atomic.Int64

func openSetsAdd(d int64) { regOpen.Set(float64(openSets.Add(d))) }

// Registry is an in-memory layer over the content-addressed table
// cache. Entries are keyed by table.CacheKey; a miss past the capacity
// bound deletes the least recently used entry. A table set is
// immutable heap memory, so a request that holds an evicted set keeps
// using it and the garbage collector reclaims it after the last one.
// One mutex guards the entries, their least-recently-used order and
// the breakers; an acquire holds it for a map lookup.
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
// when fill completes; set/err are immutable afterwards.
type regEntry struct {
	key     string
	ready   chan struct{}
	set     *table.Set
	err     error
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
// use. The set stays valid for as long as the caller holds it, evicted
// or not. The second result is noRelease: nothing needs giving back.
func (r *Registry) Acquire(ctx context.Context, cfg table.Config, axes table.Axes) (*table.Set, func(), error) {
	key, err := table.CacheKey(cfg, axes)
	if err != nil {
		return nil, nil, err
	}

	r.mu.Lock()
	if e, ok := r.entries[key]; ok {
		r.clock++
		e.lastUse = r.clock
		r.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
		if e.err != nil {
			// The filler already removed the failed entry from the map;
			// record our own observation of the failure — under
			// coalescing every disappointed waiter counts, which is
			// what makes the trip deterministic.
			return nil, nil, r.fillFailed(key, e.err, false)
		}
		regHits.Inc()
		return e.set, noRelease, nil
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
	e := &regEntry{key: key, ready: make(chan struct{}), lastUse: r.clock}
	r.entries[key] = e
	openSetsAdd(1)
	r.evictOverCapLocked(e)
	r.mu.Unlock()
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
			openSetsAdd(-1)
		}
		r.mu.Unlock()
		close(e.ready)
		return nil, nil, r.fillFailed(key, err, probe)
	}
	r.fillSucceeded(key)
	close(e.ready)
	return set, noRelease, nil
}

// noRelease is the release Acquire returns. It does nothing: a table
// set is immutable heap memory, not a resource to hand back.
func noRelease() {}

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

// evictOverCapLocked deletes least-recently-used entries until the
// registry is within maxSets, never evicting keep. A request already
// holding an evicted set keeps using it. Caller holds r.mu.
func (r *Registry) evictOverCapLocked(keep *regEntry) {
	for r.maxSets > 0 && len(r.entries) > r.maxSets {
		var victim *regEntry
		for _, e := range r.entries {
			if e != keep && (victim == nil || e.lastUse < victim.lastUse) {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(r.entries, victim.key)
		regEvicts.Inc()
		openSetsAdd(-1)
	}
}

// Len reports the resident entry count.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Close drops every entry; requests holding a set keep using it.
// Acquire may still be called afterwards — the registry simply
// refills — so Close is also usable as a flush.
func (r *Registry) Close() {
	r.mu.Lock()
	openSetsAdd(-int64(len(r.entries)))
	clear(r.entries)
	r.mu.Unlock()
}
