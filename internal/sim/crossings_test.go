package sim

// CrossingsCtx against the recorded-waveform oracle: TransientCtx plus
// CrossTime/DelayFromT0 over the full horizon.

import (
	"context"
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"clockrlc/internal/netlist"
	"clockrlc/internal/obs"
)

// fallingStage is the clock-tree stage driven by a falling ramp: the
// DC operating point sits at 1 V and every sink falls through 50 %.
func fallingStage(tb testing.TB) *netlist.Netlist {
	nl := stageNetlist(tb, true, 6)
	nl.VSources[0].Wave = netlist.Ramp{V0: 1, V1: 0, Start: stageStep, Rise: stageSlew}
	return nl
}

func TestCrossingsMatchTransientOracleBits(t *testing.T) {
	for _, c := range []struct {
		name     string
		nl       *netlist.Netlist
		h, tstop float64
		probes   []string
		level    float64
		rising   bool
	}{
		{"stage-rc", stageNetlist(t, false, 6), stageStep, 4000 * stageStep, stageSinks, 0.5, true},
		{"stage-rlc", stageNetlist(t, true, 6), stageStep, 4000 * stageStep, stageSinks, 0.5, true},
		{"stage-rlc-10pct", stageNetlist(t, true, 6), stageStep, 4000 * stageStep, append([]string{"r"}, stageSinks...), 0.1, true},
		{"coupled", coupledNetlist(t), 0.25e-12, 400e-12, []string{"a1.out", "a2.out"}, 0.5, true},
		{"falling", fallingStage(t), stageStep, 4000 * stageStep, stageSinks, 0.5, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			full, err := TransientCtx(context.Background(), c.nl, c.h, c.tstop, c.probes)
			if err != nil {
				t.Fatal(err)
			}
			before := simSteps.Value()
			got, err := CrossingsCtx(context.Background(), c.nl, c.h, c.tstop, c.probes, c.level, c.rising)
			if err != nil {
				t.Fatal(err)
			}
			ran := simSteps.Value() - before
			horizon := int64(len(full.Time) - 1)
			if ran >= horizon {
				t.Errorf("ran %d steps, the whole %d-step horizon", ran, horizon)
			}
			for k, p := range c.probes {
				want, err := CrossTime(full.Time, full.Probes[p], c.level, c.rising)
				if err != nil {
					t.Fatal(err)
				}
				if c.level == 0.5 {
					v0, v1 := 0.0, 1.0
					if !c.rising {
						v0, v1 = 1, 0
					}
					d, err := DelayFromT0(full.Time, full.Probes[p], v0, v1)
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, p+" DelayFromT0", []float64{d}, []float64{want})
				}
				sameBits(t, p, got[k:k+1], []float64{want})
				// The run stops at the step of the last crossing.
				if got[k] > float64(ran)*c.h {
					t.Errorf("%s crosses at %g s, after the run stopped at step %d", p, got[k], ran)
				}
			}
		})
	}
}

// A probe that never crosses — ground here — keeps the run going to the
// horizon and is named in the error.
func TestCrossingsNeverCrossingRunsToHorizon(t *testing.T) {
	const steps = 1000
	before := simSteps.Value()
	_, err := CrossingsCtx(context.Background(), stageNetlist(t, true, 6), stageStep, steps*stageStep,
		[]string{"s0", "gnd"}, 0.5, true)
	var nc *NoCrossingError
	if !errors.As(err, &nc) || nc.Probe != "gnd" {
		t.Fatalf("want a NoCrossingError naming gnd, got %v", err)
	}
	if ran := simSteps.Value() - before; ran != steps {
		t.Fatalf("ran %d steps, want the whole %d-step horizon", ran, steps)
	}
}

// The sim.transient span reports the steps actually run beside the
// horizon's step count.
func TestCrossingsSpanReportsStepsRun(t *testing.T) {
	mem := &obs.MemorySink{}
	obs.Default().AddSink(mem)
	defer obs.Default().RemoveSink(mem)
	if _, err := CrossingsCtx(context.Background(), stageNetlist(t, true, 6), stageStep, 4000*stageStep,
		stageSinks, 0.5, true); err != nil {
		t.Fatal(err)
	}
	for _, ev := range mem.Events() {
		if ev.Type != obs.EventSpanEnd || ev.Name != "sim.transient" {
			continue
		}
		steps, horizon := ev.Attrs["steps"], ev.Attrs["horizon_steps"]
		if horizon != 4000 {
			t.Errorf("horizon_steps = %v, want 4000", horizon)
		}
		if n, ok := steps.(int); !ok || n <= 0 || n >= 4000 {
			t.Errorf("steps = %v, want the steps run, below the horizon", steps)
		}
		return
	}
	t.Fatal("no sim.transient span")
}

// A crossings run allocates the same whatever its horizon, and fewer
// bytes than one dense dim×dim matrix. A warm rerun of a compiled
// Circuit allocates a small constant that depends on neither the
// horizon nor the system's dimension, and fewer bytes than one
// dim-vector: every dimension-sized buffer is the Circuit's own.
// Collection is off while counting, as in
// TestTransientAllocationsIndependentOfSteps.
func TestCrossingsAllocationsIndependentOfHorizon(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	nl := stageNetlist(t, true, 6)
	c, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	dense := uint64(c.dim * c.dim * 8)
	run := func(steps int) func() {
		return func() {
			if _, err := CrossingsCtx(context.Background(), nl, stageStep, float64(steps)*stageStep, stageSinks, 0.5, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	if short, long := testing.AllocsPerRun(5, run(400)), testing.AllocsPerRun(5, run(4000)); long != short {
		t.Fatalf("allocations depend on the horizon: %v at 400 steps, %v at 4000", short, long)
	}
	if perCall := bytesPerCall(run(4000)); perCall >= dense {
		t.Fatalf("%d B per call, not below one dense %d×%d matrix (%d B)", perCall, c.dim, c.dim, dense)
	}

	var want float64
	for i, sections := range []int{2, 12} {
		c, err := Compile(stageNetlist(t, true, sections))
		if err != nil {
			t.Fatal(err)
		}
		for _, steps := range []int{400, 4000} {
			rerun := func() {
				if _, err := c.CrossingsCtx(context.Background(), stageStep, float64(steps)*stageStep, stageSinks, 0.5, true); err != nil {
					t.Fatal(err)
				}
			}
			rerun() // grow the factor storage
			got := testing.AllocsPerRun(5, rerun)
			if i == 0 && steps == 400 {
				want = got
			}
			if got != want || got > 8 {
				t.Fatalf("a warm rerun of the %d-unknown stage allocates %v times at %d steps; want the same %v as the %d-section stage at 400, and at most 8",
					c.dim, got, steps, want, 2)
			}
			if perCall, vec := bytesPerCall(rerun), uint64(c.dim*8); perCall >= vec {
				t.Fatalf("a warm rerun of the %d-unknown stage allocates %d B at %d steps, not below one %d-vector (%d B)",
					c.dim, perCall, steps, c.dim, vec)
			}
		}
	}
}

// bytesPerCall returns the bytes f allocates per call, over ten calls.
func bytesPerCall(f func()) uint64 {
	const calls = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / calls
}

// Concurrent package-level runs each compile their own Circuit; each
// must get the serial result bit for bit.
func TestCrossingsConcurrentRunsMatchSerial(t *testing.T) {
	rc, rlc := stageNetlist(t, false, 6), stageNetlist(t, true, 6)
	serial := func(nl *netlist.Netlist) []float64 {
		d, err := CrossingsCtx(context.Background(), nl, stageStep, 4000*stageStep, stageSinks, 0.5, true)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	want := [][]float64{serial(rc), serial(rlc)}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				k := (w + i) % 2
				got, err := CrossingsCtx(context.Background(), []*netlist.Netlist{rc, rlc}[k], stageStep, 4000*stageStep, stageSinks, 0.5, true)
				if err != nil {
					t.Error(err)
					return
				}
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(want[k][j]) {
						t.Errorf("worker %d run %d: sink %d = %v, serial %v", w, i, j, got[j], want[k][j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestCrossingsCtxCancelsMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t0 := time.Now()
	// Ground never crosses, so only cancellation ends this long run.
	_, err := CrossingsCtx(ctx, rcStep(1e3, 1e-12), 1e-13, 1e-6, []string{"gnd"}, 0.5, true)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if took := time.Since(t0); took > time.Second {
		t.Fatalf("cancelled crossings run returned after %v", took)
	}
}

func TestCrossingsDetectsPoisonedSource(t *testing.T) {
	nl := netlist.New()
	nl.AddV("vin", "in", "0", nanAfter{t0: 0.5e-9})
	nl.AddR("r", "in", "out", 1e3)
	nl.AddC("c", "out", "0", 1e-12)
	// nanAfter holds 1 V from t = 0, so the DC point already sits above
	// 0.5 and "out" never crosses it rising: the run reaches the poison.
	_, err := CrossingsCtx(context.Background(), nl, 1e-11, 2e-9, []string{"out"}, 0.5, true)
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("want ErrDiverged, got %v", err)
	}
}

func TestCrossingsRejectsBadGridAndProbe(t *testing.T) {
	nl := rcStep(1e3, 1e-12)
	if _, err := CrossingsCtx(context.Background(), nl, 0, 1e-9, []string{"out"}, 0.5, true); err == nil {
		t.Error("accepted zero step")
	}
	if _, err := CrossingsCtx(context.Background(), nl, 1e-12, 1e-9, []string{"nosuch"}, 0.5, true); err == nil {
		t.Error("accepted unknown probe")
	}
	if got, err := CrossingsCtx(context.Background(), nl, 1e-12, 1e-9, nil, 0.5, true); err != nil || len(got) != 0 {
		t.Errorf("no probes: got %v, %v", got, err)
	}
}
