package main

import (
	"context"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"clockrlc/internal/check"
	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/obs"
	"clockrlc/internal/serve"
	"clockrlc/internal/table"
)

// smokeEnv is a 0.2 s run in a test's temporary directory.
func smokeEnv(t *testing.T, traced bool) *env {
	dir := t.TempDir()
	return &env{seed: defaultSeed, seconds: 200 * time.Millisecond, traced: traced, work: dir,
		traceDir: filepath.Join(dir, "trace"), nproc: runtime.GOMAXPROCS(0)}
}

// httptestTarget serves the extraction service in-process, standing in
// for the rlcxd binary.
type httptestTarget struct {
	srv *httptest.Server
	s   *serve.Server
}

func (t *httptestTarget) start(_ context.Context, cacheDir, _ string) (string, error) {
	cache, err := table.NewCache(cacheDir)
	if err != nil {
		return "", err
	}
	t.s, err = serve.New(serve.Config{Tech: tech, Cache: cache, MaxSets: 4, DefaultCheck: check.Warn})
	if err != nil {
		return "", err
	}
	t.srv = httptest.NewServer(t.s.Handler())
	return t.srv.URL, nil
}

func (t *httptestTarget) pid() int { return 0 }

func (t *httptestTarget) stop() error {
	if t.srv == nil {
		return nil
	}
	t.srv.Close()
	err := t.s.Close()
	t.srv, t.s = nil, nil
	return err
}

func TestSmokeEveryWorkload(t *testing.T) {
	runs := map[string]func(ctx context.Context, e *env) (*outcome, error){
		"extract-batch": runExtractBatch,
		"tree-skew":     runTreeSkew,
		"tree-deep":     runTreeDeep,
		"serve": func(ctx context.Context, e *env) (*outcome, error) {
			return runServe(ctx, e, &httptestTarget{})
		},
	}
	if len(runs) != len(workloads) {
		t.Fatalf("smoke covers %d of %d workloads", len(runs), len(workloads))
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			oc, err := run(context.Background(), smokeEnv(t, false))
			if err != nil {
				t.Fatal(err)
			}
			if oc.failed != 0 || oc.attempted < 1 {
				t.Fatalf("%d of %d failed: %v", oc.failed, oc.attempted, oc.notes)
			}
			for _, m := range endToEnd {
				if v := oc.metrics[m.Name]; !(v > 0) {
					t.Errorf("%s = %g; end-to-end metrics are never zero", m.Name, v)
				}
			}
		})
	}
}

// A traced run reports every per-layer metric it can, attributes all
// but a sliver of each operation to a layer, and writes a trace that
// cmd/obsreport's reader (obs.ReadTrace) reads back as one clean tree.
func TestSmokeTracedRunWritesAReadableTrace(t *testing.T) {
	e := smokeEnv(t, true)
	oc, err := runExtractBatch(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if oc.failed != 0 {
		t.Fatalf("%d failed: %v", oc.failed, oc.notes)
	}
	if u := oc.metrics["coverage.unattributed_frac"]; !(u >= 0 && u <= 0.05) {
		t.Errorf("unattributed %g of the batch time, want at most 0.05", u)
	}
	for _, name := range []string{"table.build_s", "table.solver_calls", "table.cache.open_us", "table.lookup.us_per_seg", "core.us_per_seg", "core.self_pct"} {
		if !(oc.metrics[name] > 0) {
			t.Errorf("%s = %g, want > 0", name, oc.metrics[name])
		}
	}
	events, err := readTraceFile(filepath.Join(e.traceDir, "extract-batch.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.BuildTrace(events)
	if len(tr.Orphans) != 0 || len(tr.Unended) != 0 || tr.Metrics == nil {
		t.Errorf("trace has %d orphaned and %d unended spans, metrics event %v", len(tr.Orphans), len(tr.Unended), tr.Metrics != nil)
	}
	roots := map[string]int{}
	for _, r := range tr.Roots {
		roots[r.Name]++
	}
	if roots["bench.setup"] != 1 || roots["bench.batch"] < 1 {
		t.Errorf("trace roots %v, want one bench.setup and the traced bench.batch operations", roots)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/tree_ref.json from this code")

// treeRefSeeds are the tree-skew seeds with a committed reference.
const treeRefSeeds = 20

// TestTreeReference checks the committed reference covers the tree
// workloads; with -update it recomputes it (about a minute).
func TestTreeReference(t *testing.T) {
	if !*update {
		ref, err := loadTreeRef()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := ref.refFor("tree-deep", 12345); !ok {
			t.Error("no seed-independent reference for tree-deep")
		}
		for seed := uint64(1); seed <= treeRefSeeds; seed++ {
			if _, ok := ref.refFor("tree-skew", seed); !ok {
				t.Errorf("no tree-skew reference for seed %d", seed)
			}
		}
		return
	}
	ref := treeRef{"tree-deep": {}, "tree-skew": {}}
	for _, s := range []treeSpec{treeDeep, treeSkew} {
		dir := t.TempDir()
		ext, _, err := coldExtractor(context.Background(), dir, []geom.Shielding{s.shield}, core.WithLookupPolicy(s.lookup))
		if err != nil {
			t.Fatal(err)
		}
		tree, err := s.build(ext)
		if err != nil {
			t.Fatal(err)
		}
		seeds := []string{"*"}
		if s.seeded {
			seeds = nil
			for seed := 1; seed <= treeRefSeeds; seed++ {
				seeds = append(seeds, strconv.Itoa(seed))
			}
		}
		for _, key := range seeds {
			seed := uint64(0)
			if key != "*" {
				seed, _ = strconv.ParseUint(key, 10, 64)
			}
			ref[s.name][key] = map[string]treeResult{}
			for _, mode := range []string{"rc", "rlc"} {
				res, err := analyze1(context.Background(), tree, s.leafLoads(seed), mode)
				if err != nil {
					t.Fatal(err)
				}
				ref[s.name][key][mode] = res
			}
		}
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", "tree_ref.json"), append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
