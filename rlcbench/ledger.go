package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// ledger is one set of untraced runs of every workload, reduced per
// metric to the median, the quartiles and the spread across runs.
type ledger struct {
	Host       hostFacts                           `json:"host"`
	RunSeconds int                                 `json:"run_seconds"`
	Seeds      []uint64                            `json:"seeds"`
	Failed     int64                               `json:"failed"`
	Workloads  map[string]map[string]metricSummary `json:"workloads"`
}

type metricSummary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Spread is (Q3 − Q1) / median; it must stay below a third of the
	// bound (setup_s excepted).
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
}

type hostFacts struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Date       string `json:"date"`
}

// ledgerMain runs the ledger subcommand:
//
//	rlcbench ledger -runs 5 -first-seed 1 -out rlcbench/ledger/set1.json
//	rlcbench ledger -compare rlcbench/ledger/set1.json rlcbench/ledger/set2.json
func ledgerMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rlcbench ledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runs := fs.Int("runs", 5, "runs per workload, one seed each")
	firstSeed := fs.Uint64("first-seed", 1, "seed of the first run; later runs count up")
	out := fs.String("out", "", "write the ledger JSON to `file`")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark `spec`")
	compare := fs.Bool("compare", false, "compare two ledger files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err == nil {
		err = sp.validate()
	}
	if err != nil {
		fmt.Fprintln(stderr, "rlcbench ledger:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "rlcbench ledger: -compare needs two ledger files")
			return 2
		}
		return compareLedgers(sp, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	l, err := runLedger(sp, *runs, *firstSeed, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "rlcbench ledger:", err)
		return 1
	}
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "rlcbench ledger:", err)
		return 1
	}
	printLedger(stdout, sp, l)
	if *out != "" {
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "rlcbench ledger:", err)
			return 1
		}
	}
	if l.Failed > 0 {
		return 1
	}
	return 0
}

// runLedger runs every workload once per seed, seed by seed, each run in
// its own process, started exactly as a single run is.
func runLedger(sp *spec, runs int, firstSeed uint64, stderr io.Writer) (*ledger, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	l := &ledger{Host: host(), RunSeconds: sp.RunSeconds, Workloads: map[string]map[string]metricSummary{}}
	values := map[string]map[string][]float64{}
	for i := 0; i < runs; i++ {
		seed := firstSeed + uint64(i)
		l.Seeds = append(l.Seeds, seed)
		for _, w := range sp.Workloads {
			res, err := runChild(self, w.Name, seed, sp.RunSeconds)
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			fmt.Fprintf(stderr, "%s seed %d: correct %v, %d attempted, %d failed\n", w.Name, seed, res.Correct, res.Attempted, res.Failed)
			l.Failed += res.Failed
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for name, v := range res.Metrics {
				values[w.Name][name] = append(values[w.Name][name], v.Value)
			}
		}
	}
	for w, byMetric := range values {
		l.Workloads[w] = map[string]metricSummary{}
		for name, vs := range byMetric {
			b, _ := sp.boundOf(name)
			q1, q2, q3 := quartiles(vs)
			l.Workloads[w][name] = metricSummary{Unit: b.Unit, Values: vs, Median: q2, Q1: q1, Q3: q3,
				Spread: (q3 - q1) / q2, Bound: b.Bound}
		}
	}
	return l, nil
}

// runChild runs one untraced workload run and parses its result line.
func runChild(self, workload string, seed uint64, seconds int) (*result, error) {
	var stdout bytes.Buffer
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("no result line (exit: %v): %w", runErr, err)
	}
	return &res, nil
}

func printLedger(w io.Writer, sp *spec, l *ledger) {
	fmt.Fprintf(w, "%-16s %-20s %12s %12s %12s %8s %8s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound/3")
	for _, wk := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			s, ok := l.Workloads[wk.Name][m.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-16s %-20s %12.6g %12.6g %12.6g %8.4f %8.4f\n", wk.Name, m.Name, s.Q1, s.Median, s.Q3, s.Spread, m.Bound/3)
		}
	}
}

// compareLedgers checks that the second set's median of every metric is
// no worse than the first's by more than the metric's bound.
func compareLedgers(sp *spec, pathA, pathB string, stdout, stderr io.Writer) int {
	var ls [2]ledger
	for i, p := range []string{pathA, pathB} {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &ls[i])
		}
		if err != nil {
			fmt.Fprintln(stderr, "rlcbench ledger:", err)
			return 1
		}
	}
	code := 0
	fmt.Fprintf(stdout, "%-16s %-20s %12s %12s %9s %6s\n", "workload", "metric", "median A", "median B", "worse by", "bound")
	for _, wk := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			a, okA := ls[0].Workloads[wk.Name][m.Name]
			b, okB := ls[1].Workloads[wk.Name][m.Name]
			if !okA || !okB {
				fmt.Fprintf(stdout, "%-16s %-20s missing\n", wk.Name, m.Name)
				code = 1
				continue
			}
			worse := (b.Median - a.Median) / a.Median
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound || math.IsNaN(worse) {
				verdict, code = "WORSE", 1
			}
			fmt.Fprintf(stdout, "%-16s %-20s %12.6g %12.6g %9.4f %6.3f %s\n", wk.Name, m.Name, a.Median, b.Median, worse, m.Bound, verdict)
		}
	}
	return code
}

func host() hostFacts {
	h := hostFacts{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     "unknown",
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
			h.Commit += "+uncommitted"
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
