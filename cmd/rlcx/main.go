// Command rlcx extracts the R, L and C of one shielded clocktree
// segment — the paper's Section V flow for a single segment — and
// optionally emits the distributed RLC ladder as a SPICE-style
// listing.
//
// Example:
//
//	rlcx -len 6000 -wsig 10 -wgnd 5 -space 1 -shield coplanar -tr 50
//	rlcx -len 6000 -wsig 10 -wgnd 5 -space 1 -netlist -sections 8
//
// Tables are built on the fly unless -tables points at a tablegen
// output whose configuration matches.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"clockrlc/internal/cliobs"
	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/netlist"
	"clockrlc/internal/obs"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

func main() {
	obsFlags := cliobs.AddFlags(flag.CommandLine)
	var (
		length    = flag.Float64("len", 6000, "segment length (µm)")
		wsig      = flag.Float64("wsig", 10, "signal width (µm)")
		wgnd      = flag.Float64("wgnd", 5, "ground/shield width (µm)")
		space     = flag.Float64("space", 1, "signal-to-shield spacing (µm)")
		shield    = flag.String("shield", "coplanar", "shielding: coplanar, microstrip or stripline")
		thickness = flag.Float64("thickness", 2, "metal thickness (µm)")
		capHeight = flag.Float64("caph", 2, "height over the capacitive reference (µm)")
		tr        = flag.Float64("tr", 50, "minimum rise time (ps)")
		tablePath = flag.String("tables", "", "pre-built table file (tablegen output)")
		cacheDir  = flag.String("cache", "", "content-addressed table cache directory (reused across runs)")
		doNetlist = flag.Bool("netlist", false, "print the RLC ladder netlist")
		sections  = flag.Int("sections", 8, "ladder sections for -netlist")
		lookupPol = flag.String("lookup-policy", "extrapolate",
			"out-of-range table lookup `policy`: extrapolate, clamp or error")
	)
	flag.Parse()
	sd := cliobs.NotifyShutdown()
	sess, err := obsFlags.Start("rlcx")
	if err != nil {
		fmt.Fprintln(os.Stderr, "rlcx:", err)
		os.Exit(cliobs.ExitFailure)
	}
	err = run(sess.Context(sd.Context()), *length, *wsig, *wgnd, *space, *shield, *thickness, *capHeight,
		*tr, *tablePath, *cacheDir, *doNetlist, *sections, *lookupPol)
	sess.Close()
	sd.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rlcx:", err)
		os.Exit(sd.ExitCode(err))
	}
}

func run(ctx context.Context, length, wsig, wgnd, space float64, shield string, thickness, capHeight,
	tr float64, tablePath, cacheDir string, doNetlist bool, sections int, lookupPol string) error {
	sh, err := geom.ParseShielding(shield)
	if err != nil {
		return fmt.Errorf("-shield: %w", err)
	}
	lp, err := table.ParseLookupPolicy(lookupPol)
	if err != nil {
		return fmt.Errorf("-lookup-policy: %w", err)
	}
	tech := core.Technology{
		Thickness:      units.Um(thickness),
		Rho:            units.RhoCopper,
		EpsRel:         units.EpsSiO2,
		CapHeight:      units.Um(capHeight),
		PlaneGap:       units.Um(2),
		PlaneThickness: units.Um(1),
	}
	freq := units.SignificantFrequency(tr * units.PicoSecond)

	var ext *core.Extractor
	if tablePath != "" {
		set, err2 := table.LoadFile(tablePath)
		if err2 != nil {
			return err2
		}
		ext, err = core.NewExtractorFromTables(tech, freq, set.WithLookup(lp))
	} else {
		opts := []core.Option{core.WithLookupPolicy(lp)}
		if cacheDir != "" {
			cache, cerr := table.NewCache(cacheDir)
			if cerr != nil {
				return cerr
			}
			opts = append(opts, core.WithTableCache(cache))
		} else {
			fmt.Fprintf(os.Stderr, "building %s tables at %.2f GHz...\n", shield, freq/1e9)
		}
		ext, err = core.NewExtractorCtx(ctx, tech, freq, table.DefaultAxes(), []geom.Shielding{sh}, opts...)
	}
	if err != nil {
		return err
	}
	seg := core.Segment{
		Length:      units.Um(length),
		SignalWidth: units.Um(wsig),
		GroundWidth: units.Um(wgnd),
		Spacing:     units.Um(space),
		Shielding:   sh,
	}
	rlc, err := ext.SegmentRLCCtx(ctx, seg)
	if err != nil {
		return err
	}
	fmt.Printf("segment: %g µm %s, signal %g µm / shields %g µm / spacing %g µm\n",
		length, shield, wsig, wgnd, space)
	fmt.Printf("  R = %8.3f Ω   (analytic, skin-corrected at %.2f GHz)\n", rlc.R, freq/1e9)
	fmt.Printf("  L = %8.4f nH  (table-composed loop inductance)\n", units.ToNH(rlc.L))
	fmt.Printf("  C = %8.2f fF  (area+fringe+grounded lateral coupling)\n", units.ToFF(rlc.C))
	direct, err := ext.DirectLoopLCtx(ctx, seg)
	if err != nil {
		return err
	}
	fmt.Printf("  (direct proximity-resolved loop L = %.4f nH)\n", units.ToNH(direct))

	// Formulate the distributed ladder under its own span (printed only
	// with -netlist, but always built so a trace shows the full
	// extract → lookup → cascade pipeline).
	_, sp := obs.StartCtx(ctx, "cascade")
	nl := netlist.New()
	_, err = nl.AddLadder("seg", "in", "out", rlc, sections)
	sp.SetAttr("sections", sections)
	sp.End()
	if err != nil {
		return err
	}
	if doNetlist {
		fmt.Println()
		title := fmt.Sprintf("%d-section RLC ladder for %g um %s segment, nodes in -> out",
			sections, length, shield)
		if err := nl.WriteSPICE(os.Stdout, title); err != nil {
			return err
		}
	}
	if n := table.ClampedLookups(); n > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d table lookup(s) fell outside the built axes (handled per -lookup-policy %s; see the table.lookup_oob_* counters); widen the table axes to cover this geometry\n", n, lp)
	}
	return nil
}
