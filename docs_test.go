package clockrlc_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents that tell a reader which benchmarks,
// commands, make targets and files to use.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	benchFuncRE = regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
	benchRefRE  = regexp.MustCompile(`\bBenchmark[A-Z0-9]\w*`)
	cmdRefRE    = regexp.MustCompile(`\bcmd/(\w+)`)
	makeRefRE   = regexp.MustCompile("`make\\s+([\\w-]+)")
	makeRuleRE  = regexp.MustCompile(`(?m)^([\w-]+):`)
	pathRefRE   = regexp.MustCompile(`\bscripts/[\w./-]*\w|\bBENCH[_]\w+\.json|\b\w+_output\.txt`)
)

// TestDocsNameExistingSurfaces keeps the docs from pointing at things
// that are not in the repository: every Benchmark… identifier is
// defined in some _test.go, every cmd/<x> is a directory, every
// backticked `make <target>` is a Makefile target, and every path
// under scripts/, every BENCH-prefixed JSON file and every
// …_output.txt file the docs name exists.
func TestDocsNameExistingSurfaces(t *testing.T) {
	benches := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range benchFuncRE.FindAllStringSubmatch(string(src), -1) {
			benches[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeRuleRE.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}

	for _, doc := range docFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, ref := range benchRefRE.FindAllString(text, -1) {
			if !benches[ref] {
				t.Errorf("%s names %s, which no _test.go defines", doc, ref)
			}
		}
		for _, m := range cmdRefRE.FindAllStringSubmatch(text, -1) {
			if fi, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !fi.IsDir() {
				t.Errorf("%s names cmd/%s, which is not a directory", doc, m[1])
			}
		}
		for _, ref := range pathRefRE.FindAllString(text, -1) {
			if _, err := os.Stat(ref); err != nil {
				t.Errorf("%s names %s, which does not exist", doc, ref)
			}
		}
		for _, m := range makeRefRE.FindAllStringSubmatch(text, -1) {
			if !targets[m[1]] {
				t.Errorf("%s names `make %s`, which the Makefile does not define", doc, m[1])
			}
		}
	}
}
