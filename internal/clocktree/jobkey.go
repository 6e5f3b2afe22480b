// Job identity for checkpointed tree analyses: the SHA-256 of every
// input that determines the walk's result. Two runs share a key iff
// they would produce bit-identical statistics, so a checkpoint can
// only ever resume the computation it came from.

package clocktree

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"clockrlc/internal/ckpt"
	"clockrlc/internal/geom"
	"clockrlc/internal/table"
)

// JobKey hashes everything that determines this tree analysis'
// result: the tree geometry and buffer model, the (defaulted)
// simulation options including every perturbation map entry, and the
// cache key of each inductance table set the levels draw on — the
// same key that names the table's on-disk cache entry, so a rebuilt
// or re-axed table changes the job. The hash is order-independent
// for maps (keys are sorted) and stable across runs and platforms.
//
// The leading version names the arithmetic behind the stage delays.
// v2 is the transient on reverse Cuthill–McKee numbered unknowns,
// which moves delays at rounding level against v1's nodes-first
// numbering, so a v1 checkpoint never resumes under it.
func (t *Tree) JobKey(opts SimOptions) ([32]byte, error) {
	opts = opts.withDefaults(t.Buffer)
	h := sha256.New()
	fmt.Fprintf(h, "clockrlc-treejob-v2\n")
	fmt.Fprintf(h, "buffer %.17g %.17g %.17g %.17g\n",
		t.Buffer.DriveRes, t.Buffer.InputCap, t.Buffer.IntrinsicDelay, t.Buffer.OutSlew)
	for i, lv := range t.Levels {
		fmt.Fprintf(h, "level %d %.17g %.17g seg %.17g %.17g %.17g %d\n",
			i, lv.TrunkLen, lv.ArmLen,
			lv.Segment.SignalWidth, lv.Segment.GroundWidth, lv.Segment.Spacing,
			lv.Segment.Shielding)
	}
	fmt.Fprintf(h, "opts %t %d %.17g %.17g %t %d\n",
		opts.WithL, opts.Sections, opts.TimeStep, opts.Horizon,
		opts.NoStageDedup, opts.SampleCap)
	scaleKeys := make([]int, 0, len(opts.Scale))
	for k := range opts.Scale {
		scaleKeys = append(scaleKeys, k)
	}
	sort.Ints(scaleKeys)
	for _, k := range scaleKeys {
		sc := opts.Scale[k]
		fmt.Fprintf(h, "scale %d %.17g %.17g %.17g\n", k, sc[0], sc[1], sc[2])
	}
	loadKeys := make([]int, 0, len(opts.LeafLoadScale))
	for k := range opts.LeafLoadScale {
		loadKeys = append(loadKeys, k)
	}
	sort.Ints(loadKeys)
	for _, k := range loadKeys {
		fmt.Fprintf(h, "load %d %.17g\n", k, opts.LeafLoadScale[k])
	}
	// The extraction behind each stage is determined by the table sets
	// the levels' shieldings select; their cache keys already encode
	// config + axes + codec format.
	seen := map[geom.Shielding]bool{}
	for _, lv := range t.Levels {
		sh := lv.Segment.Shielding
		if seen[sh] {
			continue
		}
		seen[sh] = true
		set, err := t.Ext.Tables(sh)
		if err != nil {
			// An extractor without tables for this shielding (pure
			// direct-solve setups) still has a stable identity: the
			// shielding itself.
			fmt.Fprintf(h, "tables %d none\n", sh)
			continue
		}
		key, err := table.CacheKey(set.Config, set.Axes)
		if err != nil {
			return [32]byte{}, fmt.Errorf("clocktree: job key: %w", err)
		}
		fmt.Fprintf(h, "tables %d %s\n", sh, key)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out, nil
}

// OpenCheckpoint opens (creating if needed) the checkpoint store for
// this tree + options job under dir. The store is keyed by JobKey, so
// runs with different trees or options never see each other's state.
func (t *Tree) OpenCheckpoint(dir string, opts SimOptions) (*ckpt.Store, error) {
	key, err := t.JobKey(opts)
	if err != nil {
		return nil, err
	}
	return ckpt.Open(dir, key)
}
