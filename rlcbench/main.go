// Command rlcbench is the repository's benchmark. It runs one workload
// against the extraction pipeline, checks the outputs, and prints every
// metric by name and unit; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
// Untraced runs (-trace 0) report the end-to-end metrics. Traced runs
// (-trace 1) arm the program's own spans, add the benchmark's spans
// around each call into a layer, and report the per-layer breakdown; they
// also write one JSONL trace per workload that cmd/obsreport reads.
//
// Usage (from the repository root, after building with run.sh):
//
//	bash rlcbench/run.sh --workload extract-batch --seed 1 --seconds 20 --trace 0
//	bash rlcbench/run.sh --workload all --trace 1
//	.bench_build/rlcbench ledger -runs 5 -out rlcbench/ledger/set1.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed seeds the inputs when -seed is not given.
const defaultSeed = 1

// metricDef names one reported metric. The same names, units and
// directions appear in BENCHMARK.json (spec_test.go keeps them equal).
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, and none is ever zero.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"work_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"loopl_err_pct_max", "%", "lower"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0 for its counts and shares; README.md lists which
// end-to-end metric and workload each one should move.
var perLayer = []metricDef{
	// Where the time of one operation goes: self time per layer as a
	// share of the operation's wall time.
	{"core.self_pct", "%", "lower"},
	{"table.lookup.self_pct", "%", "lower"},
	{"sim.self_pct", "%", "lower"},
	{"clocktree.walk_pct", "%", "lower"},
	{"clocktree.stage_pct", "%", "lower"},
	{"serve.decode_pct", "%", "lower"},
	{"serve.acquire_pct", "%", "lower"},
	{"serve.compose_pct", "%", "lower"},
	{"serve.encode_pct", "%", "lower"},
	{"serve.http_pct", "%", "lower"},
	{"serve.batch.self_pct", "%", "lower"},
	{"coverage.unattributed_frac", "frac", "lower"},
	{"obs.trace_overhead_frac", "frac", "lower"},
	// Set-up: table builds (field solves) and the cache.
	{"table.build_s", "s", "lower"},
	{"table.solver_calls", "count", "lower"},
	{"table.build.parallel_eff", "frac", "higher"},
	{"table.cache_hits", "count", "higher"},
	{"table.cache_misses", "count", "lower"},
	{"table.cache.open_us", "us", "lower"},
	// Lookup and composition.
	{"table.lookup.us_per_seg", "us", "lower"},
	{"table.lookup_clamped", "count", "lower"},
	{"spline.distinct_query_frac", "frac", "lower"},
	{"core.us_per_seg", "us", "lower"},
	{"core.loopl_batch.us_per_seg", "us", "lower"},
	{"core.segments_per_op", "count", "lower"},
	// The MNA transient.
	{"sim.transients_per_op", "count", "lower"},
	{"sim.steps_per_run", "count", "lower"},
	{"sim.factorizations_per_run", "count", "lower"},
	{"sim.dim_mean", "count", "lower"},
	{"sim.steps_per_s", "1/s", "higher"},
	{"linalg.flops_per_step_computed", "count", "lower"},
	// The tree walk and its stage memo.
	{"clocktree.stages_simulated", "count", "lower"},
	{"clocktree.stages_deduped", "count", "higher"},
	{"clocktree.dedup_ratio", "frac", "higher"},
	{"clocktree.leaves_per_s", "1/s", "higher"},
	// The daemon, read from its /metrics and the load generator.
	{"serve.registry_hits", "count", "higher"},
	{"serve.registry_misses", "count", "lower"},
	{"serve.registry_evictions", "count", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.request_errors", "count", "lower"},
	{"loadgen.cpu_frac", "frac", "lower"},
	{"loadgen.late_frac", "frac", "lower"},
	// Process and runtime.
	{"cpu_ms_per_op", "ms", "lower"},
	{"go.gc_cycles_per_op", "count", "lower"},
	{"go.gc_pause_pct", "%", "lower"},
}

// env is what every workload is handed.
type env struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	// work is this run's private scratch directory (table caches),
	// removed when the run ends; traceDir receives the trace files.
	work, traceDir string
	rlcxd          string
	nproc          int
}

// outcome is one workload run's result before printing.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	notes             []string
}

// reps is how many times a set-up is timed: n, or once in a run
// shorter than five seconds (a smoke run).
func (e *env) reps(n int) int {
	if e.seconds < 5*time.Second {
		return 1
	}
	return n
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// check counts one correctness check, and a failure when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.notef("CHECK FAILED: "+format, args...)
	}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(ctx context.Context, e *env) (*outcome, error)
}

var workloads = []workload{
	{"extract-batch", runExtractBatch},
	{"serve", runServeWorkload},
	{"tree-skew", runTreeSkew},
	{"tree-deep", runTreeDeep},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "ledger" {
		os.Exit(ledgerMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rlcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload `name`, or all")
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 20, "measured `seconds` per run")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics from a traced run, 0 the end-to-end metrics")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "`dir` for scratch caches and trace files")
	rlcxd := fs.String("rlcxd", filepath.Join(".bench_build", "rlcxd"), "rlcxd `binary` for the serve workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "rlcbench: -trace must be 0 or 1")
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintln(stderr, "rlcbench: -seconds must be positive")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "rlcbench: unknown workload %q (want one of %s or all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	e := &env{
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		traceDir: filepath.Join(*out, "trace"),
		rlcxd:    *rlcxd,
		nproc:    runtime.GOMAXPROCS(0),
	}
	work, err := os.MkdirTemp(mkdirAll(*out), "run-")
	if err != nil {
		fmt.Fprintln(stderr, "rlcbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	e.work = work
	// A run must end within 180 s: the deadline turns a hang into a
	// failed run instead of a killed one.
	ctx, cancel := context.WithTimeout(context.Background(), e.seconds+150*time.Second)
	defer cancel()
	oc, err := w.run(ctx, e)
	if err != nil {
		fmt.Fprintf(stderr, "rlcbench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if e.traced {
		defs = perLayer
	}
	res := result{Correct: oc.failed == 0, Attempted: oc.attempted, Failed: oc.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d nproc %d\n", w.name, e.seed, *seconds, *trace, e.nproc)
	for _, n := range oc.notes {
		fmt.Fprintln(stdout, "  "+n)
	}
	for _, d := range defs {
		v := oc.metrics[d.Name]
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "  %-32s %14.6g %s\n", d.Name, v, d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "rlcbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure
	return dir
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runAll re-executes this binary once per workload, so each workload's
// set-up, peak RSS, GC state and counters belong to its own process.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "rlcbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		child := append(withoutFlag(args, "workload"), "-workload", w.name)
		cmd := exec.Command(self, child...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "rlcbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// withoutFlag drops every -name/--name flag (with its value) from args.
func withoutFlag(args []string, name string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		if a == name {
			i++
			continue
		}
		if strings.HasPrefix(a, name+"=") {
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
