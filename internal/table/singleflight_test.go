package table

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"clockrlc/internal/fault"
)

// sweepSolves is the exact field-solver call count of one cold build
// over axes: every self cell plus the mutual upper triangle.
func sweepSolves(axes Axes) int64 {
	nw, ns, nl := len(axes.Widths), len(axes.Spacings), len(axes.Lengths)
	return int64(nw*nl + nw*(nw+1)/2*ns*nl)
}

// The single-flight acceptance test: 16 concurrent misses of the same
// content address run exactly one field-solver sweep and one
// write-back; every other caller either coalesces onto the leader's
// flight or hits the just-written entry. Latency injection at the
// solver point keeps the sweep slow enough that the callers genuinely
// overlap. Run under -race this also proves the shared result is
// handed out without mutation (every caller uses a distinct Name).
func TestGetOrBuildCtxSingleFlight(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg, axes := freeConfig(), tinyAxes()
	fault.Register(fault.NewInjector(42, fault.Rule{
		Point: fault.SolverCall, Mode: fault.ModeLatency, Prob: 1, Delay: 2 * time.Millisecond,
	}))
	defer fault.Reset()

	solves0 := tableSolves.Value()
	writes0 := cacheWrites.Value()
	hits0 := cacheHits.Value()
	coal0 := cacheCoalesced.Value()

	const callers = 16
	sets := make([]*Set, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			mine := cfg
			mine.Name = fmt.Sprintf("caller/%d", i)
			sets[i], errs[i] = c.GetOrBuildCtx(context.Background(), mine, axes)
		}(i)
	}
	close(start)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if got, want := tableSolves.Value()-solves0, sweepSolves(axes); got != want {
		t.Errorf("solver_calls += %d, want exactly one sweep (%d)", got, want)
	}
	if got := cacheWrites.Value() - writes0; got != 1 {
		t.Errorf("cache_writes += %d, want 1", got)
	}
	if got := (cacheCoalesced.Value() - coal0) + (cacheHits.Value() - hits0); got != callers-1 {
		t.Errorf("coalesced+hits += %d, want %d (every non-leader shares or hits)", got, callers-1)
	}

	// Every caller got a set carrying its own Name, bit-identical
	// values, and nobody's header leaked into anybody else's.
	w, l := axes.Widths[0], axes.Lengths[0]
	ref, err := sets[0].SelfL(w, l)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sets {
		if got, want := s.Config.Name, fmt.Sprintf("caller/%d", i); got != want {
			t.Errorf("caller %d got Name %q, want %q", i, got, want)
		}
		if v, err := s.SelfL(w, l); err != nil || v != ref {
			t.Errorf("caller %d: SelfL = %g, %v; want %g", i, v, err, ref)
		}
	}
}

// A leader whose own caller cancels must not poison the waiters: an
// uncancelled waiter retries the flight (becoming the next leader)
// and still gets a set.
func TestGetOrBuildCtxWaiterSurvivesLeaderCancel(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg, axes := freeConfig(), tinyAxes()
	fault.Register(fault.NewInjector(7, fault.Rule{
		Point: fault.SolverCall, Mode: fault.ModeLatency, Prob: 1, Delay: 2 * time.Millisecond,
	}))
	defer fault.Reset()

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderStarted := make(chan struct{})
	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(leaderStarted)
		_, leaderErr = c.GetOrBuildCtx(leaderCtx, cfg, axes)
	}()
	<-leaderStarted
	time.Sleep(5 * time.Millisecond) // let the leader enter its sweep
	cancelLeader()

	s, err := c.GetOrBuildCtx(context.Background(), cfg, axes)
	if err != nil {
		t.Fatalf("waiter failed after leader cancel: %v", err)
	}
	if s == nil {
		t.Fatal("waiter got a nil set")
	}
	wg.Wait()
	if leaderErr == nil {
		// The leader may legitimately win the race and finish before
		// the cancel lands; only a non-cancellation failure is wrong.
		return
	}
	if !errors.Is(leaderErr, context.Canceled) && !errors.Is(leaderErr, context.DeadlineExceeded) {
		t.Errorf("leader error = %v, want a cancellation", leaderErr)
	}
}

// The shared-set mutation regression test: concurrent GetCtx callers
// using different Names must each see their own Name on the returned
// header, and (under -race) the loaded set itself must never be
// written — the hit path returns a shallow header copy instead of
// rewriting Config on the cached set.
func TestGetCtxConcurrentDistinctNames(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg, axes := freeConfig(), tinyAxes()
	if _, err := c.GetOrBuild(cfg, axes); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("goroutine/%d", i)
			for j := 0; j < 20; j++ {
				mine := cfg
				mine.Name = name
				mine.Workers = i + 1
				s, ok, err := c.GetCtx(context.Background(), mine, axes)
				if err != nil || !ok {
					t.Errorf("GetCtx: ok=%v err=%v", ok, err)
					return
				}
				if s.Config.Name != name || s.Config.Workers != i+1 {
					t.Errorf("got header %q/%d, want %q/%d",
						s.Config.Name, s.Config.Workers, name, i+1)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
