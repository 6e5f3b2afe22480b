// Command tablegen precomputes an inductance table set (Section III of
// the paper) for a layer and shielding configuration and writes it for
// later use by rlcx/treesim or the library, in the v3 binary codec,
// which LoadFile reads into place instead of parsing.
//
// Example:
//
//	tablegen -out m6_cpw.rlct -thickness 2 -rho cu -shield coplanar \
//	    -tr 50 -wmin 1 -wmax 14 -nw 5 -smin 0.5 -smax 22 -ns 6 \
//	    -lmin 50 -lmax 8000 -nl 8
//
// All geometric flags are in microns; -tr is the minimum signal rise
// time in picoseconds (the extraction runs at 0.32/tr).
//
// The migrate subcommand rewrites existing artifacts of any codec —
// legacy v1/v2 JSON included — in v3 without re-solving anything;
// values migrate bit-identically:
//
//	tablegen migrate m6_cpw.json m6_cpw.rlct # one file
//	tablegen migrate libdir newlibdir        # a whole library
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"clockrlc/internal/cliobs"
	"clockrlc/internal/geom"
	"clockrlc/internal/obs"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "migrate" {
		mainMigrate(os.Args[2:])
		return
	}
	obsFlags := cliobs.AddFlags(flag.CommandLine)
	var (
		out       = flag.String("out", "tables.rlct", "output file")
		name      = flag.String("name", "layer", "table set name")
		thickness = flag.Float64("thickness", 2, "layer metal thickness (µm)")
		rhoName   = flag.String("rho", "cu", "metal: cu or al, or a resistivity in Ω·m")
		shield    = flag.String("shield", "coplanar", "shielding: coplanar, microstrip, stripline")
		planeGap  = flag.Float64("planegap", 2, "dielectric gap to the ground plane (µm)")
		planeT    = flag.Float64("planethickness", 1, "ground plane thickness (µm)")
		tr        = flag.Float64("tr", 50, "minimum rise time (ps); extraction at 0.32/tr")
		wmin      = flag.Float64("wmin", 1, "minimum width (µm)")
		wmax      = flag.Float64("wmax", 14, "maximum width (µm)")
		nw        = flag.Int("nw", 5, "width points")
		smin      = flag.Float64("smin", 0.5, "minimum spacing (µm)")
		smax      = flag.Float64("smax", 22, "maximum spacing (µm)")
		ns        = flag.Int("ns", 6, "spacing points")
		lmin      = flag.Float64("lmin", 50, "minimum length (µm)")
		lmax      = flag.Float64("lmax", 8000, "maximum length (µm)")
		nl        = flag.Int("nl", 8, "length points")
		workers   = flag.Int("workers", 0, "build worker pool size (0 = all cores)")
		cacheDir  = flag.String("cache", "", "content-addressed table cache directory (reused across runs)")
	)
	flag.Parse()

	sd := cliobs.NotifyShutdown()
	sess, err := obsFlags.Start("tablegen")
	if err != nil {
		fmt.Fprintln(os.Stderr, "tablegen:", err)
		os.Exit(cliobs.ExitFailure)
	}
	err = run(sess.Context(sd.Context()), *out, *name, *thickness, *rhoName, *shield, *planeGap, *planeT,
		*tr, *wmin, *wmax, *nw, *smin, *smax, *ns, *lmin, *lmax, *nl, *workers, *cacheDir)
	sess.Close()
	sd.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tablegen:", err)
		os.Exit(sd.ExitCode(err))
	}
}

// mainMigrate implements `tablegen migrate src dst`: a rewrite of an
// existing artifact (file mode) or a whole library directory (dir
// mode) in the v3 codec, bit-identical and without a single
// field-solver call.
func mainMigrate(argv []string) {
	fs := flag.NewFlagSet("tablegen migrate", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: tablegen migrate src dst")
		fmt.Fprintln(os.Stderr, "  src: a table file (any codec) or a library directory")
	}
	_ = fs.Parse(argv)
	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(cliobs.ExitFailure)
	}
	if err := migrate(fs.Arg(0), fs.Arg(1)); err != nil {
		fmt.Fprintln(os.Stderr, "tablegen:", err)
		os.Exit(cliobs.ExitFailure)
	}
}

// migrate loads src (sniffing the codec per file) and rewrites it at
// dst in v3. Directory sources migrate every table file into the dst
// directory under the library's file-name scheme; dst must be another
// directory, because an x.rlct written beside its x.json would make
// the directory hold the set twice.
func migrate(src, dst string) error {
	fi, err := os.Stat(src)
	if err != nil {
		return err
	}
	if fi.IsDir() {
		if di, err := os.Stat(dst); err == nil && os.SameFile(fi, di) {
			return fmt.Errorf("migrate: %s and %s are the same directory; write the library to a new one", src, dst)
		}
		lib, err := table.LoadDir(src)
		if err != nil {
			return err
		}
		if err := lib.SaveDir(dst); err != nil {
			return err
		}
		fmt.Printf("migrated %d table set(s) from %s to %s\n", lib.Len(), src, dst)
		return nil
	}
	s, err := table.LoadFile(src)
	if err != nil {
		return err
	}
	if err := s.SaveFile(dst); err != nil {
		return err
	}
	fmt.Printf("migrated %s to %s\n", src, dst)
	return nil
}

func run(ctx context.Context, out, name string, thickness float64, rhoName, shield string,
	planeGap, planeT, tr, wmin, wmax float64, nw int, smin, smax float64,
	ns int, lmin, lmax float64, nl, workers int, cacheDir string) error {
	var rho float64
	switch rhoName {
	case "cu":
		rho = units.RhoCopper
	case "al":
		rho = units.RhoAluminum
	default:
		if _, err := fmt.Sscanf(rhoName, "%g", &rho); err != nil {
			return fmt.Errorf("bad -rho %q", rhoName)
		}
	}
	sh, err := geom.ParseShielding(shield)
	if err != nil {
		return fmt.Errorf("-shield: %w", err)
	}
	cfg := table.Config{
		Name:           name + "/" + shield,
		Thickness:      units.Um(thickness),
		Rho:            rho,
		Shielding:      sh,
		PlaneGap:       units.Um(planeGap),
		PlaneThickness: units.Um(planeT),
		Frequency:      units.SignificantFrequency(tr * units.PicoSecond),
		Workers:        workers,
	}
	axes := table.Axes{
		Widths:   table.LogAxis(units.Um(wmin), units.Um(wmax), nw),
		Spacings: table.LogAxis(units.Um(smin), units.Um(smax), ns),
		Lengths:  table.LogAxis(units.Um(lmin), units.Um(lmax), nl),
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Only the upper (w1 <= w2) triangle of the mutual sweep is
	// solved; the symmetric half is mirrored.
	totalSolves := int64(nw*nl + nw*(nw+1)/2*ns*nl)
	fmt.Printf("building %s tables at %.2f GHz: %d self entries, %d mutual entries (%d solves, %d workers)\n",
		cfg.Name, cfg.Frequency/1e9,
		nw*nl, nw*nw*ns*nl, totalSolves, workers)
	start := time.Now()

	// Progress: the sweep reports through the process-wide solver-call
	// counter, polled off the build goroutines.
	solves := obs.GetCounter("table.solver_calls")
	solves0 := solves.Value()
	done := make(chan struct{})
	var progressWG sync.WaitGroup
	progressWG.Add(1)
	go func() {
		defer progressWG.Done()
		tick := time.NewTicker(2 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				did := solves.Value() - solves0
				fmt.Fprintf(os.Stderr, "  %d/%d solves (%.0f%%), %v elapsed\n",
					did, totalSolves, 100*float64(did)/float64(totalSolves),
					time.Since(start).Round(time.Second))
			}
		}
	}()
	var set *table.Set
	if cacheDir != "" {
		// Consult the content-addressed cache before sweeping; a hit
		// costs zero solver calls and is bit-identical to a cold build.
		cache, cerr := table.NewCache(cacheDir)
		if cerr != nil {
			close(done)
			progressWG.Wait()
			return cerr
		}
		hits0, _, _, _ := table.CacheStats()
		set, err = cache.GetOrBuildCtx(ctx, cfg, axes)
		if hits, _, _, _ := table.CacheStats(); err == nil && hits > hits0 {
			key, _ := table.CacheKey(cfg, axes)
			fmt.Printf("cache hit in %s (key %.12s…): reused the stored sweep, zero solver calls\n",
				cacheDir, key)
		}
	} else {
		set, err = table.BuildCtx(ctx, cfg, axes)
	}
	close(done)
	progressWG.Wait()
	if err != nil {
		return err
	}
	if err := set.SaveFile(out); err != nil {
		return err
	}
	fmt.Printf("wrote %s in %v\n", out, time.Since(start).Round(time.Millisecond))

	// Summarise the build's work from the instrumentation counters.
	builds := obs.GetCounter("table.builds").Value()
	solveCalls := solves.Value()
	buildNs := obs.GetCounter("table.build_ns").Value()
	perTable := time.Duration(0)
	if builds > 0 {
		perTable = time.Duration(buildNs / builds).Round(time.Millisecond)
	}
	fmt.Printf("metrics: %d table set(s) built, %d field-solver calls, %v per table set\n",
		builds, solveCalls, perTable)
	return nil
}
