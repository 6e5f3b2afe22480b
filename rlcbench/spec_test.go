package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestBenchmarkJSONIsValidAndMatchesTheCode(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.validate(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(sp.Paths, ",") != "rlcbench" {
		t.Errorf("paths %v, want [rlcbench]", sp.Paths)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].name)
		}
	}
	var e2e []metricDef
	for _, m := range sp.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	var layer []metricDef
	for _, m := range sp.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	sameDefs(t, "end_to_end", e2e, endToEnd)
	sameDefs(t, "per_layer", layer, perLayer)
}

func sameDefs(t *testing.T, kind string, got, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in the code", kind, i, got[i], want[i])
		}
	}
}

func TestSpecValidationRejects(t *testing.T) {
	valid := func() *spec {
		return &spec{
			Command:    []string{"bash", "rlcbench/run.sh"},
			Paths:      []string{"rlcbench"},
			RunSeconds: 20,
			Workloads:  []specWork{{"a", "why a"}, {"b", "why b"}},
			EndToEnd:   []specBound{{"setup_s", "s", "lower", 0.25}},
			PerLayer:   []specLayer{{"x.y", "count", "higher"}},
		}
	}
	if err := valid().validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, mutate := range map[string]func(s *spec){
		"one workload":       func(s *spec) { s.Workloads = s.Workloads[:1] },
		"nine workloads":     func(s *spec) { s.Workloads = make([]specWork, 9) },
		"bad name":           func(s *spec) { s.Workloads[0].Name = "has space" },
		"name from _":        func(s *spec) { s.PerLayer[0].Name = "_x" },
		"duplicate name":     func(s *spec) { s.PerLayer[0].Name = "setup_s" },
		"two-line why":       func(s *spec) { s.Workloads[1].Why = "a\nb" },
		"bound above 0.25":   func(s *spec) { s.EndToEnd[0].Bound = 0.3 },
		"no setup_s":         func(s *spec) { s.EndToEnd[0].Name = "wall_s" },
		"setup_s in ms":      func(s *spec) { s.EndToEnd[0].Unit = "ms" },
		"better sideways":    func(s *spec) { s.PerLayer[0].Better = "more" },
		"long unit":          func(s *spec) { s.PerLayer[0].Unit = "nanoseconds_per_op" },
		"no paths":           func(s *spec) { s.Paths = nil },
		"path leaves repo":   func(s *spec) { s.Paths = []string{"../x"} },
		"absolute path":      func(s *spec) { s.Paths = []string{"/x"} },
		"absolute command":   func(s *spec) { s.Command = []string{"/bin/bash"} },
		"run_seconds 61":     func(s *spec) { s.RunSeconds = 61 },
		"17 end-to-end":      func(s *spec) { s.EndToEnd = append(s.EndToEnd, make([]specBound, 16)...) },
		"129 per-layer":      func(s *spec) { s.PerLayer = make([]specLayer, 129) },
		"no per-layer":       func(s *spec) { s.PerLayer = nil },
		"empty command list": func(s *spec) { s.Command = nil },
	} {
		s := valid()
		mutate(s)
		if err := s.validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// README.md maps every per-layer metric to the end-to-end metric and
// workload it should move; the map must cover exactly the metrics the
// benchmark reports and name only metrics and workloads that exist.
func TestReadmeMapsEveryPerLayerMetric(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(b), "\n## Per-layer metrics\n")
	if !ok {
		t.Fatal("README.md has no Per-layer metrics section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
	}
	wl := map[string]bool{"all": true}
	for _, w := range workloads {
		wl[w.name] = true
	}
	code := regexp.MustCompile("`([^`]+)`")
	mapped := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 6 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		mapped[name] = true
		moves := code.FindAllStringSubmatch(cells[3], -1)
		on := code.FindAllStringSubmatch(cells[4], -1)
		if len(moves) == 0 || len(on) == 0 {
			t.Errorf("%s: no end-to-end metric or workload named", name)
		}
		for _, m := range moves {
			if !e2e[m[1]] {
				t.Errorf("%s should move %q, which is no end-to-end metric", name, m[1])
			}
		}
		for _, w := range on {
			if !wl[w[1]] {
				t.Errorf("%s: %q is no workload", name, w[1])
			}
		}
	}
	for _, m := range perLayer {
		if !mapped[m.Name] {
			t.Errorf("README.md does not map per-layer metric %s", m.Name)
		}
		delete(mapped, m.Name)
	}
	for name := range mapped {
		t.Errorf("README.md maps %s, which the benchmark does not report", name)
	}
}
