// Command obsreport analyses a JSONL span trace (the -trace output of
// any clockrlc cmd): it reconstructs the span tree, reports orphaned
// and unended spans (a concurrency-correct trace has none), ranks
// stages by self time with p50/p90/p99 latency estimates, and walks
// the critical path — the chain of spans that actually bounded the
// wall time, which for a parallel table build is the straggler cell.
//
// Example:
//
//	tablegen -workers 8 -trace build.jsonl -out tables.rlct
//	obsreport build.jsonl
//	obsreport -top 5 -no-tree build.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"clockrlc/internal/obs"
)

func main() {
	var (
		topN   = flag.Int("top", 10, "rows in the self-time ranking")
		noTree = flag.Bool("no-tree", false, "skip the span tree (rankings and critical path only)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: obsreport [flags] trace.jsonl\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsreport:", err)
		os.Exit(1)
	}
	events, err := obs.ReadTrace(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsreport:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, events, *topN, !*noTree); err != nil {
		fmt.Fprintln(os.Stderr, "obsreport:", err)
		os.Exit(1)
	}
}

// collapseAt is the sibling count past which same-name children print
// as one aggregated line — a 1000-cell parallel build is a histogram,
// not a thousand rows.
const collapseAt = 6

// report writes the full analysis of the recorded events to w.
func report(w io.Writer, events []obs.Event, topN int, showTree bool) error {
	t := obs.BuildTrace(events)
	if len(t.Spans) == 0 {
		return fmt.Errorf("trace contains no spans")
	}
	fmt.Fprintf(w, "trace: %d events, %d spans, %d roots, %d orphaned, %d unended\n",
		len(events), len(t.Spans), len(t.Roots), len(t.Orphans), len(t.Unended))
	for _, sp := range t.Orphans {
		fmt.Fprintf(w, "  orphaned: %s (span %d, parent %d never appeared)\n", sp.Name, sp.ID, sp.Parent)
	}
	for _, sp := range t.Unended {
		fmt.Fprintf(w, "  unended: %s (span %d)\n", sp.Name, sp.ID)
	}

	if showTree {
		fmt.Fprintf(w, "\nspan tree:\n")
		for _, root := range t.Roots {
			printTree(w, root, 1)
		}
	}

	agg := t.Aggregate()
	if topN > len(agg) {
		topN = len(agg)
	}
	fmt.Fprintf(w, "\ntop %d stages by self time:\n", topN)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "  stage\tcount\ttotal\tself\tp50\tp90\tp99\n")
	for _, s := range agg[:topN] {
		fmt.Fprintf(tw, "  %s\t%d\t%s\t%s\t%s\t%s\t%s\n",
			s.Name, s.Count, fmtDur(s.Total), fmtDur(s.Self), fmtDur(s.P50), fmtDur(s.P90), fmtDur(s.P99))
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	path := t.CriticalPath()
	if len(path) > 0 {
		fmt.Fprintf(w, "\ncritical path (%s over %d spans):\n", fmtDur(path[0].Dur), len(path))
		for i, sp := range path {
			fmt.Fprintf(w, "  %s%s %s (self %s)\n",
				indent(i), sp.Name, fmtDur(sp.Dur), fmtDur(sp.SelfTime()))
		}
	}

	if t.Metrics != nil {
		fmt.Fprintf(w, "\nmetrics snapshot: %d counters, %d gauges, %d histograms\n",
			len(t.Metrics.Counters), len(t.Metrics.Gauges), len(t.Metrics.Histograms))
	}
	return nil
}

// printTree renders a span and its children, collapsing same-name
// sibling groups larger than collapseAt into one aggregate line.
func printTree(w io.Writer, sp *obs.TraceSpan, depth int) {
	fmt.Fprintf(w, "%s%s %s\n", indent(depth), name(sp), fmtDur(sp.Dur))
	groups := map[string]int{}
	for _, c := range sp.Children {
		groups[name(c)]++
	}
	printed := map[string]bool{}
	for _, c := range sp.Children {
		n := name(c)
		if groups[n] > collapseAt {
			if printed[n] {
				continue
			}
			printed[n] = true
			var total, max time.Duration
			for _, s := range sp.Children {
				if name(s) == n {
					total += s.Dur
					if s.Dur > max {
						max = s.Dur
					}
				}
			}
			cnt := groups[n]
			fmt.Fprintf(w, "%s%s ×%d (total %s, mean %s, max %s)\n",
				indent(depth+1), n, cnt, fmtDur(total), fmtDur(total/time.Duration(cnt)), fmtDur(max))
			continue
		}
		printTree(w, c, depth+1)
	}
}

func name(sp *obs.TraceSpan) string {
	if sp.Name == "" {
		return "(unnamed)"
	}
	return sp.Name
}

func indent(depth int) string {
	const pad = "                                                                "
	n := 2 * depth
	if n > len(pad) {
		n = len(pad)
	}
	return pad[:n]
}

// fmtDur rounds a duration to a readable precision (full nanosecond
// durations make reports unreadable and goldens brittle).
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return d.Round(time.Second).String()
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(time.Nanosecond).String()
	}
}
