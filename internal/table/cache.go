package table

// Content-addressed on-disk table cache. The paper's economy is
// "solve once, look up forever" (Section III): the field-solver sweep
// is the expensive step and every extraction after it is spline
// lookups. The cache makes that durable across processes: a stable
// hash of every value-determining input — (Config, Axes, codec format
// version) — addresses an on-disk store of built sets, so any number
// of concurrent extractions can share one pre-built artifact, and a
// rebuilt binary with an incompatible codec simply misses and
// re-solves rather than loading stale bytes.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"clockrlc/internal/check"
	"clockrlc/internal/fault"
	"clockrlc/internal/geom"
	"clockrlc/internal/obs"
)

// Cache accounting: hits serve a ready set with zero solver calls,
// misses fall through to Build, corrupt counts entries that existed
// but failed to load or verify (treated as misses and overwritten by
// the next Put). io_errors counts reads and writes that stayed failed
// after the transient-retry budget — the cache degrades to a rebuild
// (read) or an unpersisted set (write) rather than failing the
// extraction.
var (
	cacheHits      = obs.GetCounter("table.cache_hits")
	cacheMisses    = obs.GetCounter("table.cache_misses")
	cacheWrites    = obs.GetCounter("table.cache_writes")
	cacheCorrupt   = obs.GetCounter("table.cache_corrupt")
	cacheIOErrs    = obs.GetCounter("table.cache_io_errors")
	cacheCoalesced = obs.GetCounter("table.cache_coalesced")
)

// cacheKeyRecord pins exactly the fields that participate in the
// cache key. Config.Name is provenance (a label) and Config.Workers
// is an execution detail — builds are bit-for-bit deterministic at
// any worker count — so neither influences the built values and
// neither is hashed. The codec format version is included so a codec
// change retires every old entry at once instead of half-reading it.
// Field order is part of the address: do not reorder without bumping
// the codec version.
type cacheKeyRecord struct {
	FormatVersion  int
	Thickness      float64
	Rho            float64
	Shielding      geom.Shielding
	PlaneGap       float64
	PlaneThickness float64
	Frequency      float64
	PlaneStrips    int
	SubW           int
	SubT           int
	Widths         []float64
	Spacings       []float64
	Lengths        []float64
}

// CacheKey returns the content address of the table set that (cfg,
// axes) would build: the hex SHA-256 of the value-determining fields
// after defaulting. Two configurations that build bit-identical sets
// hash identically (Name and Workers are excluded); any change to a
// physical parameter, an axis point, or the codec version changes the
// key.
func CacheKey(cfg Config, axes Axes) (string, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	if err := axes.Validate(); err != nil {
		return "", err
	}
	rec := cacheKeyRecord{
		// Entries are stored in the v3 binary codec; bumping this
		// retired every v2 JSON entry at once (they re-key, miss, and
		// rebuild) instead of half-reading them.
		FormatVersion:  formatVersionV3,
		Thickness:      cfg.Thickness,
		Rho:            cfg.Rho,
		Shielding:      cfg.Shielding,
		PlaneGap:       cfg.PlaneGap,
		PlaneThickness: cfg.PlaneThickness,
		Frequency:      cfg.Frequency,
		PlaneStrips:    cfg.PlaneStrips,
		SubW:           cfg.SubW,
		SubT:           cfg.SubT,
		Widths:         axes.Widths,
		Spacings:       axes.Spacings,
		Lengths:        axes.Lengths,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return "", fmt.Errorf("table: cache key: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Cache is a content-addressed store of built table sets, one codec
// file per key, under a single directory. It is safe for concurrent
// use by any number of processes: entries are immutable once written,
// writes are atomic (temp file + rename), and racing builders of the
// same key write bit-identical bytes, so whichever rename lands last
// changes nothing.
type Cache struct {
	dir string

	// flights dedups concurrent GetOrBuildCtx misses within this
	// process: the first caller of a key becomes the leader and runs
	// the field-solver sweep; everyone else arriving before the leader
	// finishes waits on the flight and shares the one result. Without
	// it, N concurrent misses run N full sweeps and N write-backs.
	mu      sync.Mutex
	flights map[string]*flight
}

// flight is one in-progress build: done is closed when the leader has
// a result, after which set/err are immutable.
type flight struct {
	done chan struct{}
	set  *Set
	err  error
}

// NewCache opens (creating if needed) a cache rooted at dir.
func NewCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("table: cache needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("table: cache: %w", err)
	}
	return &Cache{dir: dir, flights: map[string]*flight{}}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Path returns the on-disk location of a key's entry. Entries are v3
// binaries (.rlct) so a hit is one aligned read instead of a parse;
// the extension change is safe because the FormatVersion bump re-keyed
// everything anyway.
func (c *Cache) Path(key string) string { return filepath.Join(c.dir, key+".rlct") }

// Get looks up the set (cfg, axes) addresses. A missing entry is
// (nil, false, nil); a present entry that fails to load, fails its
// checksum, or no longer hashes to its own address is counted corrupt
// and treated as a miss (the next Put atomically replaces it). On a
// hit the stored set is returned with the caller's Name and Workers
// applied, since those are excluded from the address.
func (c *Cache) Get(cfg Config, axes Axes) (*Set, bool, error) {
	return c.GetCtx(context.Background(), cfg, axes)
}

// GetCtx is Get honouring cancellation: retry backoffs wake on a
// cancelled ctx and the context error is returned rather than being
// misread as a miss. Transient read failures (injected or the
// retryable POSIX errnos) are re-attempted per transientRetry; if they
// persist the entry is counted in table.cache_io_errors and treated
// as a miss, degrading to a rebuild instead of failing the caller.
func (c *Cache) GetCtx(ctx context.Context, cfg Config, axes Axes) (*Set, bool, error) {
	key, err := CacheKey(cfg, axes)
	if err != nil {
		return nil, false, err
	}
	var s *Set
	err = transientRetry.Do(ctx, "table.cache.read", func() error {
		if err := fault.Check(fault.CacheRead); err != nil {
			return err
		}
		var lerr error
		s, lerr = LoadFile(c.Path(key))
		return lerr
	})
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return nil, false, err
		case errors.Is(err, fs.ErrNotExist):
			cacheMisses.Inc()
			return nil, false, nil
		case errors.Is(err, check.ErrViolation):
			// The entry is well-formed — its checksum verified — but
			// its values fail the strict-policy physical-invariant
			// audit. That is not corruption, and silently rebuilding
			// would bypass the user's strict policy: fail loudly.
			return nil, false, err
		case fault.IsTransient(err):
			cacheIOErrs.Inc()
			cacheMisses.Inc()
			return nil, false, nil
		default:
			cacheCorrupt.Inc()
			cacheMisses.Inc()
			return nil, false, nil
		}
	}
	// Content-addressed verification: the entry must hash back to the
	// address it was found under, or it was written by a different
	// scheme (or tampered with) and cannot be trusted for this key.
	storedKey, err := CacheKey(s.Config, s.Axes)
	if err != nil || storedKey != key {
		cacheCorrupt.Inc()
		cacheMisses.Inc()
		return nil, false, nil
	}
	cacheHits.Inc()
	return setWithHeader(s, cfg), true, nil
}

// setWithHeader returns s carrying the caller's Name and Workers —
// both excluded from the content address, so a hit must re-apply them
// — without mutating s: once a registry shares one *Set across
// requests, writing s.Config here would be a data race on every hit.
// The copy shares the grids.
func setWithHeader(s *Set, cfg Config) *Set {
	if s.Config.Name == cfg.Name && s.Config.Workers == cfg.Workers {
		return s
	}
	cp := *s
	cp.Config.Name = cfg.Name
	cp.Config.Workers = cfg.Workers
	return &cp
}

// Put stores a built set under its content address, atomically.
func (c *Cache) Put(s *Set) error {
	return c.PutCtx(context.Background(), s)
}

// PutCtx is Put honouring cancellation; transient write failures are
// re-attempted per transientRetry before the error is returned.
func (c *Cache) PutCtx(ctx context.Context, s *Set) error {
	if s == nil {
		return errors.New("table: cache: nil set")
	}
	key, err := CacheKey(s.Config, s.Axes)
	if err != nil {
		return err
	}
	err = transientRetry.Do(ctx, "table.cache.write", func() error {
		if err := fault.Check(fault.CacheWrite); err != nil {
			return err
		}
		return s.SaveFile(c.Path(key))
	})
	if err != nil {
		return err
	}
	cacheWrites.Inc()
	return nil
}

// GetOrBuild returns the cached set for (cfg, axes) when present —
// zero field-solver calls, lookups bit-identical to a cold build —
// and otherwise builds it and writes it back for every extraction
// after this one.
func (c *Cache) GetOrBuild(cfg Config, axes Axes) (*Set, error) {
	return c.GetOrBuildCtx(context.Background(), cfg, axes)
}

// GetOrBuildCtx is GetOrBuild honouring cancellation end to end: the
// cache probe, the sweep (which drains its workers within one cell of
// a cancel) and the write-back all stop on ctx. A failed write-back
// of a successfully built set degrades rather than fails — the set is
// correct and usable, only its persistence was lost — counted in
// table.cache_io_errors and flagged on the span; cancellation during
// the write is still propagated.
//
// Concurrent misses of the same content address are single-flighted:
// the first caller runs the sweep, everyone else waits on its flight
// (counted in table.cache_coalesced) and shares the one result — and
// its error, except cancellation: a leader cancelled by its own
// caller is not the waiters' failure, so an uncancelled waiter
// retries (and typically becomes the next leader). Waiters honour
// their own ctx while parked.
func (c *Cache) GetOrBuildCtx(ctx context.Context, cfg Config, axes Axes) (*Set, error) {
	ctx, sp := obs.StartCtx(ctx, "table.cache")
	sp.SetAttr("name", cfg.Name)
	defer sp.End()
	// The content address doubles as the flight key and is recorded on
	// the span so obsreport traces can correlate cache entries across
	// runs.
	key, err := CacheKey(cfg, axes)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("key", key)
	for {
		s, ok, err := c.GetCtx(ctx, cfg, axes)
		if err != nil {
			return nil, err
		}
		if ok {
			sp.SetAttr("outcome", "hit")
			return s, nil
		}
		c.mu.Lock()
		if c.flights == nil { // zero-value Cache (tests construct &Cache{})
			c.flights = map[string]*flight{}
		}
		if f, inFlight := c.flights[key]; inFlight {
			c.mu.Unlock()
			cacheCoalesced.Inc()
			sp.SetAttr("outcome", "coalesced")
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if f.err != nil {
				if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
					if ctx.Err() != nil {
						return nil, ctx.Err()
					}
					continue
				}
				return nil, f.err
			}
			return setWithHeader(f.set, cfg), nil
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()
		sp.SetAttr("outcome", "miss")
		f.set, f.err = c.buildAndPut(ctx, cfg, axes, sp)
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
		return f.set, f.err
	}
}

// buildAndPut is the miss path: run the sweep, write the result back
// (degrading — not failing — on a persistent write error).
func (c *Cache) buildAndPut(ctx context.Context, cfg Config, axes Axes, sp obs.Span) (*Set, error) {
	s, err := BuildCtx(ctx, cfg, axes)
	if err != nil {
		return nil, err
	}
	if err := c.PutCtx(ctx, s); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		cacheIOErrs.Inc()
		sp.SetAttr("write_error", err.Error())
	}
	return s, nil
}

// CacheStats reports the process-wide cache counters.
func CacheStats() (hits, misses, writes, corrupt int64) {
	return cacheHits.Value(), cacheMisses.Value(), cacheWrites.Value(), cacheCorrupt.Value()
}
