package serve

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"clockrlc/internal/check"
	"clockrlc/internal/fault"
	"clockrlc/internal/geom"
	"clockrlc/internal/obs"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

func testTableConfig() table.Config {
	return table.Config{
		Name:      "serve-test/coplanar",
		Thickness: units.Um(2),
		Rho:       units.RhoCopper,
		Shielding: geom.ShieldNone,
		Frequency: 3.2e9,
	}
}

// testAxes is a fast-to-build grid whose spacing axis still covers
// the coplanar ground-to-ground spacing (2·spacing + signal width) of
// the test segments.
func testAxes() table.Axes {
	return table.Axes{
		Widths:   table.LogAxis(units.Um(1), units.Um(4), 2),
		Spacings: table.LogAxis(units.Um(1), units.Um(8), 3),
		Lengths:  table.LogAxis(units.Um(100), units.Um(1000), 3),
	}
}

// sweepSolves mirrors the build cost model: one solver call per self
// cell plus the mutual upper triangle.
func sweepSolves(axes table.Axes) int64 {
	nw, ns, nl := len(axes.Widths), len(axes.Spacings), len(axes.Lengths)
	return int64(nw*nl + nw*(nw+1)/2*ns*nl)
}

// configAtFrequency varies the content address without changing the
// sweep size: frequency is part of the cache key.
func configAtFrequency(f float64) table.Config {
	cfg := testTableConfig()
	cfg.Frequency = f
	return cfg
}

// Two acquires of one key share one *table.Set; the registry counts
// one miss and one hit.
func TestRegistryAcquireSharesOneSet(t *testing.T) {
	r := NewRegistry(RegistryOptions{})
	hits0, misses0 := regHits.Value(), regMisses.Value()

	s1, _, err := r.Acquire(context.Background(), testTableConfig(), testAxes())
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := r.Acquire(context.Background(), testTableConfig(), testAxes())
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("two acquires of one key returned distinct sets")
	}
	if d := regMisses.Value() - misses0; d != 1 {
		t.Errorf("misses = %d, want 1", d)
	}
	if d := regHits.Value() - hits0; d != 1 {
		t.Errorf("hits = %d, want 1", d)
	}
	if n := r.Len(); n != 1 {
		t.Errorf("Len = %d, want 1", n)
	}
}

// The cold-start acceptance: 32 concurrent acquires of one
// never-built key run exactly one field-solver sweep. Latency
// injection keeps the sweep slow enough that the callers genuinely
// overlap.
func TestRegistryColdAcquire32Concurrent(t *testing.T) {
	cache, err := table.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(RegistryOptions{Cache: cache})
	fault.Register(fault.NewInjector(7, fault.Rule{
		Point: fault.SolverCall, Mode: fault.ModeLatency, Prob: 1, Delay: 2 * time.Millisecond,
	}))
	defer fault.Reset()

	solves0 := obs.GetCounter("table.solver_calls").Value()
	const callers = 32
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		sets = map[*table.Set]bool{}
	)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			s, _, err := r.Acquire(context.Background(), testTableConfig(), testAxes())
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := s.SelfL(s.Axes.Widths[0], s.Axes.Lengths[0]); err != nil {
				t.Error(err)
			}
			mu.Lock()
			sets[s] = true
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()

	if d := obs.GetCounter("table.solver_calls").Value() - solves0; d != sweepSolves(testAxes()) {
		t.Errorf("solver calls = %d, want exactly one sweep = %d", d, sweepSolves(testAxes()))
	}
	if len(sets) != 1 {
		t.Errorf("%d distinct sets handed out, want 1", len(sets))
	}
}

// otherConfig returns a config with a different content address from
// base's and the same sweep size.
func otherConfig(base table.Config) table.Config {
	return configAtFrequency(base.Frequency * 1.01)
}

// MaxSets is the registry's resident bound, exactly: acquiring N+2
// distinct keys at MaxSets N leaves N resident, and the two evicted
// are the two least recently used.
func TestRegistryMaxSetsIsExact(t *testing.T) {
	const n = 3
	ctx, axes := context.Background(), testAxes()
	r := NewRegistry(RegistryOptions{MaxSets: n})
	cfgs := make([]table.Config, n+2)
	for i := range cfgs {
		cfgs[i] = configAtFrequency(3.2e9 * (1 + float64(i)/10))
	}
	acquire := func(cfg table.Config) {
		t.Helper()
		if _, _, err := r.Acquire(ctx, cfg, axes); err != nil {
			t.Fatal(err)
		}
	}
	evicts0 := regEvicts.Value()
	for _, cfg := range cfgs {
		acquire(cfg)
	}
	if got := r.Len(); got != n {
		t.Fatalf("Len = %d after %d distinct keys at MaxSets %d, want %d", got, len(cfgs), n, n)
	}
	if d := regEvicts.Value() - evicts0; d != 2 {
		t.Errorf("evictions = %d, want 2", d)
	}
	// The newest n are resident: acquiring them misses nothing.
	misses0 := regMisses.Value()
	for _, cfg := range cfgs[2:] {
		acquire(cfg)
	}
	if d := regMisses.Value() - misses0; d != 0 {
		t.Errorf("the %d newest keys missed %d times, want 0", n, d)
	}
	// The two oldest were evicted: each misses again.
	for _, cfg := range cfgs[:2] {
		acquire(cfg)
	}
	if d := regMisses.Value() - misses0; d != 2 {
		t.Errorf("the two oldest keys missed %d times, want 2", d)
	}
	r.Close()
}

// Eviction is counted, and a set a request still holds keeps
// evaluating after its entry is evicted and the collector has run:
// the registry dropping a set never takes it from a request.
func TestRegistryEvictionRespectsRefcounts(t *testing.T) {
	cache, err := table.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfgA, axes := testTableConfig(), testAxes()
	cfgB := otherConfig(cfgA)
	// Warm the cache so registry fills are file reads.
	for _, cfg := range []table.Config{cfgA, cfgB} {
		if _, err := cache.GetOrBuildCtx(ctx, cfg, axes); err != nil {
			t.Fatal(err)
		}
	}

	r := NewRegistry(RegistryOptions{Cache: cache, MaxSets: 1})
	setA, _, err := r.Acquire(ctx, cfgA, axes)
	if err != nil {
		t.Fatal(err)
	}
	evicts0 := regEvicts.Value()
	if _, _, err := r.Acquire(ctx, cfgB, axes); err != nil { // evicts A while held
		t.Fatal(err)
	}
	if d := regEvicts.Value() - evicts0; d != 1 {
		t.Errorf("evictions = %d, want 1", d)
	}
	runtime.GC()
	if _, err := setA.SelfL(setA.Axes.Widths[0], setA.Axes.Lengths[0]); err != nil {
		t.Errorf("lookup on held evicted set: %v", err)
	}
	r.Close()
	if n := r.Len(); n != 0 {
		t.Errorf("Len after Close = %d, want 0", n)
	}
}

// Every cache open is audited: under Warn, each registry miss that
// reads an evicted set back in from the cache advances table.audits by
// exactly one. The audit got cheaper; it is neither skipped nor
// remembered across opens.
func TestRegistryAuditsEveryMapIn(t *testing.T) {
	prev := check.Active().Policy()
	check.SetPolicy(check.Warn)
	t.Cleanup(func() { check.SetPolicy(prev) })

	cache, err := table.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfgA, axes := testTableConfig(), testAxes()
	r := NewRegistry(RegistryOptions{Cache: cache, MaxSets: 1})
	cfgB := otherConfig(cfgA)
	for _, cfg := range []table.Config{cfgA, cfgB} {
		if _, err := cache.GetOrBuildCtx(ctx, cfg, axes); err != nil {
			t.Fatal(err)
		}
	}

	audits, cacheHits := obs.GetCounter("table.audits"), obs.GetCounter("table.cache_hits")
	audits0, hits0, misses0, violations0 := audits.Value(), cacheHits.Value(), regMisses.Value(), check.Violations()
	const rounds = 5
	for i := 0; i < rounds; i++ {
		for _, cfg := range []table.Config{cfgA, cfgB} {
			if _, _, err := r.Acquire(ctx, cfg, axes); err != nil {
				t.Fatal(err)
			}
		}
	}
	misses := regMisses.Value() - misses0
	if misses != 2*rounds {
		t.Fatalf("misses = %d, want %d: the two keys share one slot, so every acquire opens the cache", misses, 2*rounds)
	}
	if d := cacheHits.Value() - hits0; d != misses {
		t.Fatalf("table.cache_hits advanced %d over %d registry misses, want every fill to be a cache hit", d, misses)
	}
	if d := audits.Value() - audits0; d != misses {
		t.Errorf("table.audits advanced %d over %d cache opens, want one audit per open", d, misses)
	}
	if d := check.Violations() - violations0; d != 0 {
		t.Errorf("clean sets reported %d violations", d)
	}
	r.Close()
}

// A failed fill must not poison the key: the next acquire retries.
func TestRegistryFailedFillRetries(t *testing.T) {
	r := NewRegistry(RegistryOptions{})
	cfg, axes := testTableConfig(), testAxes()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := r.Acquire(ctx, cfg, axes); err == nil {
		t.Fatal("acquire with cancelled ctx succeeded")
	}
	if n := r.Len(); n != 0 {
		t.Fatalf("failed fill left %d entries resident", n)
	}
	s, _, err := r.Acquire(context.Background(), cfg, axes)
	if err != nil {
		t.Fatalf("retry after failed fill: %v", err)
	}
	if s == nil {
		t.Fatal("nil set from successful retry")
	}
}
