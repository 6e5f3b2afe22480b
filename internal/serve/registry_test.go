package serve

import (
	"context"
	"os"
	"runtime"
	"strings"
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

	s1, rel1, err := r.Acquire(context.Background(), testTableConfig(), testAxes())
	if err != nil {
		t.Fatal(err)
	}
	s2, rel2, err := r.Acquire(context.Background(), testTableConfig(), testAxes())
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
	rel1()
	rel1() // double release is a no-op
	rel2()
	if n := r.Len(); n != 1 {
		t.Errorf("Len = %d, want 1 (release does not evict)", n)
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
			s, rel, err := r.Acquire(context.Background(), testTableConfig(), testAxes())
			if err != nil {
				t.Error(err)
				return
			}
			defer rel()
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

// sameShardConfig returns a config whose cache key lands in the same
// shard as base's, with a different content address.
func sameShardConfig(t *testing.T, r *Registry, base table.Config, axes table.Axes) table.Config {
	t.Helper()
	baseKey, err := table.CacheKey(base, axes)
	if err != nil {
		t.Fatal(err)
	}
	for f := base.Frequency * 1.01; ; f *= 1.01 {
		cfg := configAtFrequency(f)
		key, err := table.CacheKey(cfg, axes)
		if err != nil {
			t.Fatal(err)
		}
		if r.shard(key) == r.shard(baseKey) {
			return cfg
		}
	}
}

// Eviction closes an unreferenced set (its mapping is released) but
// never one a request still holds: the close happens at the last
// release.
func TestRegistryEvictionRespectsRefcounts(t *testing.T) {
	dir := t.TempDir()
	cache, err := table.NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfgA, axes := testTableConfig(), testAxes()

	// Warm the cache so registry fills arrive as mmapped loads.
	warm, err := cache.GetOrBuildCtx(ctx, cfgA, axes, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = warm

	r := NewRegistry(RegistryOptions{Cache: cache, MaxSets: 1}) // perShard = 1
	cfgB := sameShardConfig(t, r, cfgA, axes)
	if _, err := cache.GetOrBuildCtx(ctx, cfgB, axes, nil); err != nil {
		t.Fatal(err)
	}

	// Unreferenced eviction: acquire A, release, push B into the same
	// shard. A's mapping must be released immediately.
	setA, relA, err := r.Acquire(ctx, cfgA, axes)
	if err != nil {
		t.Fatal(err)
	}
	if !setA.Mapped() {
		t.Fatal("cache-hit fill is not mmapped; eviction test needs a mapping")
	}
	relA()
	evicts0 := regEvicts.Value()
	_, relB, err := r.Acquire(ctx, cfgB, axes)
	if err != nil {
		t.Fatal(err)
	}
	if d := regEvicts.Value() - evicts0; d != 1 {
		t.Errorf("evictions = %d, want 1", d)
	}
	if setA.Mapped() {
		t.Error("evicted unreferenced set still mapped")
	}

	// Referenced eviction: acquire A (refills, evicting B is not
	// possible — B is the only other entry and gets evicted), hold the
	// reference across the eviction and verify the set stays usable.
	setA2, relA2, err := r.Acquire(ctx, cfgA, axes)
	if err != nil {
		t.Fatal(err)
	}
	relB()
	_, relB2, err := r.Acquire(ctx, cfgB, axes) // evicts A while held
	if err != nil {
		t.Fatal(err)
	}
	if !setA2.Mapped() {
		t.Fatal("held set unmapped by eviction")
	}
	if _, err := setA2.SelfL(setA2.Axes.Widths[0], setA2.Axes.Lengths[0]); err != nil {
		t.Errorf("lookup on held evicted set: %v", err)
	}
	relA2()
	if setA2.Mapped() {
		t.Error("evicted set still mapped after last release")
	}
	relB2()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if n := r.Len(); n != 0 {
		t.Errorf("Len after Close = %d, want 0", n)
	}
}

// Every map-in is audited: under Warn, each registry miss that maps
// an evicted set back in from the cache advances table.audits by
// exactly one. The audit got cheaper; it is neither skipped nor
// remembered across map-ins.
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
	r := NewRegistry(RegistryOptions{Cache: cache, MaxSets: 1}) // perShard = 1
	cfgB := sameShardConfig(t, r, cfgA, axes)
	for _, cfg := range []table.Config{cfgA, cfgB} {
		warm, err := cache.GetOrBuildCtx(ctx, cfg, axes, nil)
		if err != nil {
			t.Fatal(err)
		}
		warm.Close()
	}

	audits := obs.GetCounter("table.audits")
	audits0, misses0, violations0 := audits.Value(), regMisses.Value(), check.Violations()
	const rounds = 5
	for i := 0; i < rounds; i++ {
		for _, cfg := range []table.Config{cfgA, cfgB} {
			s, rel, err := r.Acquire(ctx, cfg, axes)
			if err != nil {
				t.Fatal(err)
			}
			if !s.Mapped() {
				t.Fatal("registry fill is not a cache map-in")
			}
			rel()
		}
	}
	misses := regMisses.Value() - misses0
	if misses != 2*rounds {
		t.Fatalf("misses = %d, want %d: the two keys share one slot, so every acquire maps in", misses, 2*rounds)
	}
	if d := audits.Value() - audits0; d != misses {
		t.Errorf("table.audits advanced %d over %d map-ins, want one audit per map-in", d, misses)
	}
	if d := check.Violations() - violations0; d != 0 {
		t.Errorf("clean sets reported %d violations", d)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func mappingCount(t *testing.T) int {
	t.Helper()
	b, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("cannot read /proc/self/maps: %v", err)
	}
	return strings.Count(string(b), "\n")
}

// Steady-state acquire/evict cycles must not grow the process mapping
// count: every munmap-on-evict pairs with the mmap that loaded the
// set.
func TestRegistryMappingCountFlat(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/self/maps is Linux-only")
	}
	dir := t.TempDir()
	cache, err := table.NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	axes := testAxes()
	cfgs := make([]table.Config, 4)
	for i := range cfgs {
		cfgs[i] = configAtFrequency(3.2e9 * (1 + float64(i)/10))
		if _, err := cache.GetOrBuildCtx(ctx, cfgs[i], axes, nil); err != nil {
			t.Fatal(err)
		}
	}

	r := NewRegistry(RegistryOptions{Cache: cache, MaxSets: 1})
	cycle := func() {
		for _, cfg := range cfgs {
			s, rel, err := r.Acquire(ctx, cfg, axes)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.SelfL(s.Axes.Widths[0], s.Axes.Lengths[0]); err != nil {
				t.Error(err)
			}
			rel()
		}
	}
	cycle() // warm up allocator/runtime mappings
	before := mappingCount(t)
	const cycles = 10
	for i := 0; i < cycles; i++ {
		cycle()
	}
	after := mappingCount(t)
	// The 4 configs cycle through a 1-per-shard registry: if evicted
	// sets leaked their mappings the count would grow by tens of
	// mappings; runtime noise is at most a few.
	if after-before >= cycles {
		t.Errorf("mapping count grew %d → %d across %d acquire/evict cycles", before, after, cycles)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
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
	s, rel, err := r.Acquire(context.Background(), cfg, axes)
	if err != nil {
		t.Fatalf("retry after failed fill: %v", err)
	}
	defer rel()
	if s == nil {
		t.Fatal("nil set from successful retry")
	}
}
