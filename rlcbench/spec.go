package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
)

// spec is BENCHMARK.json: how to run the benchmark, its workloads, and
// its metrics with their regression bounds.
type spec struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []specWork  `json:"workloads"`
	EndToEnd   []specBound `json:"end_to_end"`
	PerLayer   []specLayer `json:"per_layer"`
}

type specWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specBound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) > 64<<10 {
		return nil, fmt.Errorf("%s: %d bytes, over 64 KiB", path, len(b))
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// validate checks every limit BENCHMARK.json must meet.
func (s *spec) validate() error {
	var errs []string
	bad := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }

	if n := len(s.Command); n < 1 || n > 32 {
		bad("command has %d strings, want 1–32", n)
	}
	for _, c := range s.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || hasDotDot(c) {
			bad("command string %q: at most 200 characters, no absolute path, no ..", c)
		}
	}
	if n := len(s.Paths); n < 1 || n > 16 {
		bad("paths has %d entries, want 1–16", n)
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || hasDotDot(p) {
			bad("path %q: relative, at most 200 of [A-Za-z0-9_./-], no ..", p)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		bad("run_seconds %d, want 1–60", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		bad("%d workloads, want 2–8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		bad("%d end_to_end metrics, want 1–16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		bad("%d per_layer metrics, want 1–128", n)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			bad("%s name %q: a letter or digit, then at most 63 of [A-Za-z0-9_.-]", kind, n)
		}
		if seen[n] {
			bad("name %q is used twice", n)
		}
		seen[n] = true
	}
	metric := func(kind, n, unit, better string) {
		name(kind, n)
		if !unitRE.MatchString(unit) {
			bad("%s %q: unit %q: at most 16 of [A-Za-z0-9_/%%.-]", kind, n, unit)
		}
		if better != "higher" && better != "lower" {
			bad("%s %q: better %q, want higher or lower", kind, n, better)
		}
	}
	for _, w := range s.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			bad("workload %q: why must be one non-empty line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range s.EndToEnd {
		metric("end_to_end metric", m.Name, m.Unit, m.Better)
		if !(m.Bound >= 0 && m.Bound <= 0.25) {
			bad("end_to_end metric %q: bound %g, want 0–0.25", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		bad(`end_to_end must hold setup_s with unit "s" and better "lower"`)
	}
	for _, m := range s.PerLayer {
		metric("per_layer metric", m.Name, m.Unit, m.Better)
	}
	if len(errs) > 0 {
		return fmt.Errorf("BENCHMARK.json: %s", strings.Join(errs, "; "))
	}
	return nil
}

func hasDotDot(p string) bool {
	for _, part := range strings.Split(p, "/") {
		if part == ".." {
			return true
		}
	}
	return false
}

// boundOf returns an end-to-end metric's bound.
func (s *spec) boundOf(name string) (specBound, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return specBound{}, false
}
