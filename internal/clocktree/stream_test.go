package clocktree

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"clockrlc/internal/check"
	"clockrlc/internal/fault"
	"clockrlc/internal/obs"
	"clockrlc/internal/sim"
)

// perturbedOpts is a tree configuration with enough per-stage and
// per-leaf perturbation that dedup has real work to skip and real
// work it must not skip.
func perturbedOpts() SimOptions {
	return SimOptions{
		WithL:         true,
		Scale:         map[int][3]float64{1: {1.1, 1.2, 1}},
		LeafLoadScale: map[int]float64{0: 1.5, 7: 2},
	}
}

func statsEqual(t *testing.T, name string, got, want *ArrivalStats) {
	t.Helper()
	bits := math.Float64bits
	if got.Leaves != want.Leaves {
		t.Errorf("%s: Leaves = %d, want %d", name, got.Leaves, want.Leaves)
	}
	if bits(got.Min) != bits(want.Min) || bits(got.Max) != bits(want.Max) {
		t.Errorf("%s: Min/Max = %v/%v, want %v/%v", name, got.Min, got.Max, want.Min, want.Max)
	}
	if got.MinLeaf != want.MinLeaf || got.MaxLeaf != want.MaxLeaf {
		t.Errorf("%s: Min/MaxLeaf = %d/%d, want %d/%d", name, got.MinLeaf, got.MaxLeaf, want.MinLeaf, want.MaxLeaf)
	}
	if bits(got.Sum) != bits(want.Sum) || bits(got.SumSq) != bits(want.SumSq) {
		t.Errorf("%s: Sum/SumSq = %v/%v, want %v/%v", name, got.Sum, got.SumSq, want.Sum, want.SumSq)
	}
	if got.Hist != want.Hist {
		t.Errorf("%s: histograms differ", name)
	}
	if len(got.Sample) != len(want.Sample) {
		t.Errorf("%s: %d samples, want %d", name, len(got.Sample), len(want.Sample))
	} else {
		for i := range got.Sample {
			if bits(got.Sample[i]) != bits(want.Sample[i]) {
				t.Errorf("%s: sample[%d] = %v, want %v", name, i, got.Sample[i], want.Sample[i])
			}
		}
	}
	if got.StagesSimulated != want.StagesSimulated || got.StagesDeduped != want.StagesDeduped {
		t.Errorf("%s: simulated/deduped = %d/%d, want %d/%d", name,
			got.StagesSimulated, got.StagesDeduped, want.StagesSimulated, want.StagesDeduped)
	}
}

// TestStreamedStatsBitIdentical pins the tentpole's correctness
// claim: the memoized streaming walk produces bit-identical arrivals
// to the exact walk (NoStageDedup), and the streamed statistics equal
// what the full slice reduces to.
func TestStreamedStatsBitIdentical(t *testing.T) {
	tr := testTree(t, 2)
	opts := perturbedOpts()
	opts.SampleCap = 8

	exact := opts
	exact.NoStageDedup = true
	arrExact, err := tr.Arrivals(exact)
	if err != nil {
		t.Fatal(err)
	}
	arrMemo, err := tr.Arrivals(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(arrExact) != len(arrMemo) {
		t.Fatalf("lengths differ: %d vs %d", len(arrExact), len(arrMemo))
	}
	for i := range arrExact {
		if math.Float64bits(arrExact[i]) != math.Float64bits(arrMemo[i]) {
			t.Fatalf("arrival %d: exact %v, memoized %v", i, arrExact[i], arrMemo[i])
		}
	}

	stats, err := tr.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	skew, early, late := sim.Skew(arrExact)
	if stats.Leaves != int64(len(arrExact)) {
		t.Fatalf("stats cover %d leaves, slice has %d", stats.Leaves, len(arrExact))
	}
	if int(stats.MinLeaf) != early || int(stats.MaxLeaf) != late {
		t.Errorf("extreme leaves %d/%d, slice says %d/%d", stats.MinLeaf, stats.MaxLeaf, early, late)
	}
	if got := stats.Max - stats.Min; math.Float64bits(got) != math.Float64bits(skew) {
		t.Errorf("skew %v, slice says %v", got, skew)
	}
	var sum float64
	for _, a := range arrExact {
		sum += a
	}
	if math.Float64bits(stats.Sum) != math.Float64bits(sum) {
		t.Errorf("Sum = %v, leaf-order slice sum = %v", stats.Sum, sum)
	}
	// Stage 1 is scaled; leaf 0 (stage 1) and leaf 7 (stage 2) carry
	// loads. Stages 3 and 4 are identical → exactly one dedup.
	if stats.StagesSimulated != 4 || stats.StagesDeduped != 1 {
		t.Errorf("simulated/deduped = %d/%d, want 4/1", stats.StagesSimulated, stats.StagesDeduped)
	}
	if len(stats.Sample) != 8 {
		t.Errorf("reservoir holds %d samples, want 8", len(stats.Sample))
	}

	// The reservoir is a pure function of the walk: a second run keeps
	// the identical sample.
	again, err := tr.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	statsEqual(t, "repeat run", again, stats)
}

// TestNominalTreeDedup pins the headline economics: a nominal H-tree
// needs one transient per level, everything else is memo hits.
func TestNominalTreeDedup(t *testing.T) {
	for _, tc := range []struct {
		levels              int
		leaves, sim, dedupe int64
	}{
		{levels: 3, leaves: 64, sim: 3, dedupe: 21 - 3},
		// A million sinks: 349,525 stage instances collapse to one
		// transient per level.
		{levels: 10, leaves: 1 << 20, sim: 10, dedupe: 349525 - 10},
	} {
		t.Run(fmt.Sprintf("levels=%d", tc.levels), func(t *testing.T) {
			if tc.levels > 3 && testing.Short() {
				t.Skip("million-sink walk skipped under -short")
			}
			tr := testTree(t, tc.levels)
			stats, err := tr.Analyze(SimOptions{WithL: true})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Leaves != tc.leaves {
				t.Fatalf("leaves = %d, want %d", stats.Leaves, tc.leaves)
			}
			if stats.StagesSimulated != tc.sim {
				t.Errorf("simulated %d transients for a nominal %d-level tree, want %d",
					stats.StagesSimulated, tc.levels, tc.sim)
			}
			if stats.StagesDeduped != tc.dedupe {
				t.Errorf("deduped = %d, want %d", stats.StagesDeduped, tc.dedupe)
			}
			if stats.Min <= 0 || stats.Max < stats.Min {
				t.Errorf("degenerate stats: min %v max %v", stats.Min, stats.Max)
			}
			// A nominal tree's sinks differ only by solver rounding noise.
			if skew := stats.Max - stats.Min; skew > 1e-12*stats.Max {
				t.Errorf("nominal tree skew %v is beyond rounding noise", skew)
			}
		})
	}
}

// TestSkewReportNamesLeaves checks satellite 2: SkewReport carries
// the same skew as the legacy path plus the extreme leaf indices.
func TestSkewReportNamesLeaves(t *testing.T) {
	tr := testTree(t, 2)
	opts := perturbedOpts()
	arr, err := tr.Arrivals(opts)
	if err != nil {
		t.Fatal(err)
	}
	skew, early, late := sim.Skew(arr)
	rep, err := tr.SkewReport(opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(rep.Skew) != math.Float64bits(skew) {
		t.Errorf("SkewReport.Skew = %v, sim.Skew = %v", rep.Skew, skew)
	}
	if int(rep.MinLeaf) != early || int(rep.MaxLeaf) != late {
		t.Errorf("extremes %d/%d, want %d/%d", rep.MinLeaf, rep.MaxLeaf, early, late)
	}
	if rep.Leaves != int64(len(arr)) {
		t.Errorf("Leaves = %d, want %d", rep.Leaves, len(arr))
	}
	legacy, err := tr.Skew(opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(legacy) != math.Float64bits(rep.Skew) {
		t.Errorf("Skew() = %v, SkewReport().Skew = %v", legacy, rep.Skew)
	}
}

// TestCheckpointResumeBitIdentical is the crash-recovery pin: a run
// that checkpoints aggressively, then a second run resuming from the
// last mid-walk checkpoint, must produce bit-identical statistics to
// an uninterrupted run while re-simulating strictly fewer stages.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	tr := testTree(t, 2)
	opts := perturbedOpts()
	opts.SampleCap = 8
	ctx := context.Background()

	ref, err := tr.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	store, err := tr.OpenCheckpoint(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	statsA, err := tr.AnalyzeCtx(ctx, opts, &Checkpoint{Store: store, EveryStages: 1})
	if err != nil {
		t.Fatal(err)
	}
	statsEqual(t, "checkpointing run", statsA, ref)
	if store.Seq() == 0 {
		t.Fatal("no checkpoints were written")
	}

	// Resume in a "new process": a fresh store over the same directory.
	store2, err := tr.OpenCheckpoint(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	simsBefore := treeStages.Value()
	statsB, err := tr.AnalyzeCtx(ctx, opts, &Checkpoint{Store: store2, EveryStages: 1, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	statsEqual(t, "resumed run", statsB, ref)
	if statsB.ResumedSeq == 0 {
		t.Fatal("resumed run did not report a checkpoint sequence")
	}
	resimulated := treeStages.Value() - simsBefore
	if resimulated >= ref.StagesSimulated {
		t.Errorf("resumed run re-simulated %d stages, cold run needed %d", resimulated, ref.StagesSimulated)
	}
}

// TestResumeDegradesOnCorruptState plants a checksum-valid checkpoint
// whose payload is not walker state: resume must count it as corrupt
// and fall back to a clean cold start with correct results.
func TestResumeDegradesOnCorruptState(t *testing.T) {
	tr := testTree(t, 2)
	opts := SimOptions{WithL: true}
	ctx := context.Background()
	ref, err := tr.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	store, err := tr.OpenCheckpoint(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(ctx, []byte("not walker state at all")); err != nil {
		t.Fatal(err)
	}
	before := obs.GetCounter("ckpt.corrupt").Value()
	stats, err := tr.AnalyzeCtx(ctx, opts, &Checkpoint{Store: store, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if obs.GetCounter("ckpt.corrupt").Value() != before+1 {
		t.Error("undecodable state not counted as corrupt")
	}
	if stats.ResumedSeq != 0 {
		t.Errorf("run claims to have resumed from seq %d", stats.ResumedSeq)
	}
	statsEqual(t, "degraded run", stats, ref)
}

// TestAnalyzeRejectsForeignStore pins the job-key gate inside the
// walker itself: a store opened for different options must be refused
// before any state is read.
func TestAnalyzeRejectsForeignStore(t *testing.T) {
	tr := testTree(t, 2)
	optsA := SimOptions{WithL: true}
	optsB := SimOptions{WithL: false}
	store, err := tr.OpenCheckpoint(t.TempDir(), optsA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.AnalyzeCtx(context.Background(), optsB, &Checkpoint{Store: store}); err == nil {
		t.Fatal("walker accepted a store keyed for different options")
	}
}

// TestJobKeyDiscriminates: equal inputs agree, any result-affecting
// change disagrees.
func TestJobKeyDiscriminates(t *testing.T) {
	tr := testTree(t, 2)
	base := SimOptions{WithL: true, SampleCap: 4}
	k1, err := tr.JobKey(base)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := tr.JobKey(base)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("same inputs produced different job keys")
	}
	variants := []SimOptions{
		{WithL: false, SampleCap: 4},
		{WithL: true, SampleCap: 5},
		{WithL: true, SampleCap: 4, Sections: 9},
		{WithL: true, SampleCap: 4, Scale: map[int][3]float64{2: {1.01, 1, 1}}},
		{WithL: true, SampleCap: 4, LeafLoadScale: map[int]float64{3: 1.5}},
		{WithL: true, SampleCap: 4, NoStageDedup: true},
	}
	for i, v := range variants {
		kv, err := tr.JobKey(v)
		if err != nil {
			t.Fatal(err)
		}
		if kv == k1 {
			t.Errorf("variant %d collides with the base job key", i)
		}
	}
	// Different geometry must re-key too.
	tr2 := testTree(t, 3)
	k3, err := tr2.JobKey(base)
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Error("different trees share a job key")
	}
}

// TestJobKeyGolden pins the job key of a fixed tree and options, so a
// change to the key's inputs or to its version is deliberate. The same
// inputs keyed c8c485bb5d44165f18c9259cd6aa9c5f2fab6ea36abff80f30f4c9f368c9bbf0
// under clockrlc-treejob-v1, before the transient renumbered its
// unknowns.
func TestJobKeyGolden(t *testing.T) {
	const want = "8052f5a19a66856cdb8271e918f3af819fa975a9d0b2adb87d62538cd4588347"
	key, err := testTree(t, 2).JobKey(SimOptions{WithL: true, SampleCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(key[:]); got != want {
		t.Fatalf("job key %s, want %s", got, want)
	}
}

// TestCheckpointAuditCatchesBadStats: a well-checksummed checkpoint
// whose statistics violate their own invariants (min > max) must be
// rejected under -check strict, naming the checkpoint stage.
func TestCheckpointAuditCatchesBadStats(t *testing.T) {
	tr := testTree(t, 2)
	opts := SimOptions{WithL: true}
	store, err := tr.OpenCheckpoint(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	bad := &walker{levels: 2, opts: opts}
	bad.stats.Leaves = 4
	bad.stats.Min = 5e-12
	bad.stats.Max = 1e-12 // min > max: impossible
	bad.stats.Hist[0] = 4
	bad.stack = []frame{{level: 0, next: 1}}
	if _, err := store.Save(context.Background(), bad.encodeState()); err != nil {
		t.Fatal(err)
	}

	check.SetPolicy(check.Strict)
	defer check.SetPolicy(check.Off)
	_, err = tr.AnalyzeCtx(context.Background(), opts, &Checkpoint{Store: store, Resume: true})
	if !errors.Is(err, check.ErrViolation) {
		t.Fatalf("want a strict check violation, got %v", err)
	}
	var v *check.Violation
	if !errors.As(err, &v) || v.Stage != check.StageCheckpoint {
		t.Fatalf("violation not attributed to the checkpoint stage: %v", err)
	}

	// Under warn the same checkpoint is counted but the run proceeds
	// (and, with consistent remaining state, completes).
	check.SetPolicy(check.Warn)
	before := check.StageViolations(check.StageCheckpoint)
	if _, err := tr.AnalyzeCtx(context.Background(), opts, &Checkpoint{Store: store, Resume: true}); err != nil {
		t.Fatalf("warn policy must not abort the run: %v", err)
	}
	if check.StageViolations(check.StageCheckpoint) <= before {
		t.Error("warn policy did not count the violation")
	}
}

// settleGoroutines waits for the goroutine count to return to the
// baseline (plus slack for the runtime's own workers).
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.Gosched()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines did not settle: %d, baseline %d", n, baseline)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cancelAtSpan calls cancel when the n-th span named name starts.
type cancelAtSpan struct {
	name   string
	n      int64
	seen   atomic.Int64
	cancel context.CancelFunc
}

func (s *cancelAtSpan) Emit(e *obs.Event) {
	if e.Type == obs.EventSpanStart && e.Name == s.name && s.seen.Add(1) == s.n {
		s.cancel()
	}
}

func (*cancelAtSpan) Flush() error { return nil }

// TestArrivalsCancellationLeakFree: cancelling a mid-tree walk returns
// promptly with the context error and leaks no goroutines. The cancel
// comes when the second transient starts, so it lands inside a running
// transient (whose step loop checks the context every 64 steps) at the
// same point of the walk on a fast host and a slow one.
func TestArrivalsCancellationLeakFree(t *testing.T) {
	tr := testTree(t, 3)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelAtSpan{name: "sim.transient", n: 2, cancel: cancel}
	obs.Default().AddSink(sink)
	start := time.Now()
	_, err := tr.ArrivalsCtx(ctx, SimOptions{WithL: true, NoStageDedup: true})
	obs.Default().RemoveSink(sink)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cancellation took %v to unwind", d)
	}
	settleGoroutines(t, baseline)
}

// TestCancelInsideCheckpointWrite pins the harder half of satellite
// 3: cancellation arriving while a checkpoint write is in flight
// (injected latency at ckpt.write) still unwinds promptly and
// leak-free.
func TestCancelInsideCheckpointWrite(t *testing.T) {
	tr := testTree(t, 2)
	opts := perturbedOpts()
	store, err := tr.OpenCheckpoint(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	fault.Register(fault.NewInjector(7, fault.Rule{
		Point: fault.CkptWrite, Mode: fault.ModeLatency, Prob: 1, Delay: 150 * time.Millisecond,
	}))
	defer fault.Reset()

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	// Fires while the first (slowed) checkpoint save is sleeping.
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	_, err = tr.AnalyzeCtx(ctx, opts, &Checkpoint{Store: store, EveryStages: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancellation took %v to unwind", d)
	}
	settleGoroutines(t, baseline)
}

// TestCheckpointSaveFailureDegrades: an injected write error must not
// stop the analysis — it is counted and the job completes correctly.
func TestCheckpointSaveFailureDegrades(t *testing.T) {
	tr := testTree(t, 2)
	opts := SimOptions{WithL: true}
	ref, err := tr.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	store, err := tr.OpenCheckpoint(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	fault.Register(fault.NewInjector(7, fault.Rule{
		Point: fault.CkptWrite, Mode: fault.ModeError, Prob: 1,
	}))
	defer fault.Reset()
	before := ckptSaveFails.Value()
	stats, err := tr.AnalyzeCtx(context.Background(), opts, &Checkpoint{Store: store, EveryStages: 1})
	if err != nil {
		t.Fatalf("analysis must survive checkpoint write failures: %v", err)
	}
	statsEqual(t, "save-degraded run", stats, ref)
	if ckptSaveFails.Value() <= before {
		t.Error("failed saves not counted")
	}
	if store.Seq() != 0 {
		t.Errorf("store advanced to seq %d despite injected failures", store.Seq())
	}
}

// TestStateCodecRoundTrip round-trips a populated walker through the
// binary codec.
func TestStateCodecRoundTrip(t *testing.T) {
	w := codecWalker()
	payload := w.encodeState()

	r := &walker{levels: 3, opts: SimOptions{SampleCap: 4}, memo: map[stageSig][4]float64{}}
	if err := r.decodeState(payload); err != nil {
		t.Fatal(err)
	}
	statsEqual(t, "round trip", &r.stats, &w.stats)
	if len(r.memo) != len(w.memo) {
		t.Fatalf("memo size %d, want %d", len(r.memo), len(w.memo))
	}
	for sig, d := range w.memo {
		if r.memo[sig] != d {
			t.Errorf("memo[%+v] = %v, want %v", sig, r.memo[sig], d)
		}
	}
	if len(r.stack) != 2 || r.stack[0] != w.stack[0] || r.stack[1] != w.stack[1] {
		t.Errorf("stack mismatch: %+v", r.stack)
	}

	// Shape attacks must fail cleanly, not panic.
	bad := [][]byte{
		nil,
		payload[:5],
		payload[:len(payload)-3],
		append(append([]byte{}, payload...), 0),
	}
	for i, p := range bad {
		r := &walker{levels: 3, opts: SimOptions{SampleCap: 4}}
		if err := r.decodeState(p); err == nil {
			t.Errorf("malformed payload %d decoded without error", i)
		}
	}
	// A frame claiming a level outside this tree must be rejected.
	deep := &walker{levels: 9, opts: SimOptions{SampleCap: 4}}
	deep.stack = []frame{{level: 7, next: 1}}
	shallow := &walker{levels: 2, opts: SimOptions{SampleCap: 4}}
	if err := shallow.decodeState(deep.encodeState()); err == nil {
		t.Error("frame level beyond tree depth decoded without error")
	}
}
