package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

// tech is rlcxd's default technology (2 µm copper over 2 µm oxide, a
// 1 µm plane 2 µm below), so in-process and daemon results can be
// compared bit for bit.
var tech = core.Technology{
	Thickness:      units.Um(2),
	Rho:            units.RhoCopper,
	EpsRel:         units.EpsSiO2,
	CapHeight:      units.Um(2),
	PlaneGap:       units.Um(2),
	PlaneThickness: units.Um(1),
}

// riseTimePs is the rise time of the in-process workloads (and the
// daemon's middle one).
const riseTimePs = 50

var bothShieldings = []geom.Shielding{geom.ShieldNone, geom.ShieldMicrostrip}

func newRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x636c6f636b726c63))
}

func logUniform(r *rand.Rand, lo, hi float64) float64 {
	return lo * math.Exp(r.Float64()*math.Log(hi/lo))
}

// randomSegment draws a segment log-uniformly inside table.DefaultAxes:
// widths 1–15 µm, spacing 0.8–8 µm, length 100–7000 µm, so the derived
// ground-to-ground spacing (at most 31 µm) stays on the 40 µm axis.
// Shielding is coplanar or microstrip with equal odds.
func randomSegment(r *rand.Rand) core.Segment {
	sh := geom.ShieldNone
	if r.IntN(2) == 1 {
		sh = geom.ShieldMicrostrip
	}
	return core.Segment{
		SignalWidth: units.Um(logUniform(r, 1, 15)),
		GroundWidth: units.Um(logUniform(r, 1, 15)),
		Spacing:     units.Um(logUniform(r, 0.8, 8)),
		Length:      units.Um(logUniform(r, 100, 7000)),
		Shielding:   sh,
	}
}

// probeSet is the fixed accuracy probe: a 4×4×4 log grid over width,
// spacing and length of the randomSegment ranges. It does not depend on
// the seed, so loopl_err_pct_max measures the table method, not the
// luck of a draw. With several shieldings they alternate along the set.
func probeSet(shs []geom.Shielding) []core.Segment {
	grid := func(lo, hi float64, i int) float64 { return lo * math.Pow(hi/lo, float64(i)/3) }
	var out []core.Segment
	for wi := 0; wi < 4; wi++ {
		for si := 0; si < 4; si++ {
			for li := 0; li < 4; li++ {
				w := units.Um(grid(1, 15, wi))
				out = append(out, core.Segment{
					SignalWidth: w,
					GroundWidth: w,
					Spacing:     units.Um(grid(0.8, 8, si)),
					Length:      units.Um(grid(100, 7000, li)),
					Shielding:   shs[len(out)%len(shs)],
				})
			}
		}
	}
	return out
}

// loopLErrPctMax is the largest |LoopL − DirectLoopL| / DirectLoopL over
// segs, in percent: the accuracy the table lookup trades for its speed.
func loopLErrPctMax(ctx context.Context, ext *core.Extractor, segs []core.Segment) (float64, error) {
	worst := 0.0
	for i, s := range segs {
		l, err := ext.LoopLCtx(ctx, s)
		if err != nil {
			return 0, fmt.Errorf("probe %d: %w", i, err)
		}
		d, err := ext.DirectLoopLCtx(ctx, s)
		if err != nil {
			return 0, fmt.Errorf("probe %d: %w", i, err)
		}
		worst = math.Max(worst, math.Abs(l-d)/d*100)
	}
	return worst, nil
}

// freqFor is the significant frequency of a rise time in ps.
func freqFor(risePs float64) float64 {
	return units.SignificantFrequency(risePs * units.PicoSecond)
}

// coldExtractor builds an extractor from an empty table cache under dir:
// tables are built and written back.
func coldExtractor(ctx context.Context, dir string, shs []geom.Shielding, opts ...core.Option) (*core.Extractor, *table.Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	cache, err := table.NewCache(dir)
	if err != nil {
		return nil, nil, err
	}
	ext, err := core.NewExtractorCtx(ctx, tech, freqFor(riseTimePs), table.DefaultAxes(), shs,
		append([]core.Option{core.WithTableCache(cache)}, opts...)...)
	if err != nil {
		return nil, nil, err
	}
	return ext, cache, nil
}

// setupReps builds the extractor reps times, each from its own empty
// cache directory, records the median calibrated set-up time as setup_s
// and returns the last extractor.
func setupReps(ctx context.Context, e *env, oc *outcome, reps int, shs []geom.Shielding, opts ...core.Option) (*core.Extractor, error) {
	var walls, cals []time.Duration
	var ext *core.Extractor
	for i := 0; i < reps; i++ {
		wall, cal, err := timed(func() (err error) {
			ext, _, err = coldExtractor(ctx, filepath.Join(e.work, fmt.Sprintf("cache-%d", i)), shs, opts...)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		walls, cals = append(walls, wall), append(cals, cal)
	}
	oc.metrics["setup_s"] = durationsMedian(cals)
	oc.notef("setup_s: median of %d cold builds from an empty cache; wall-clock median %.4g s", reps, durationsMedian(walls))
	return ext, nil
}
