package clockrlc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
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
	testFuncRE = regexp.MustCompile(`(?m)^func ((?:Benchmark|Example)\w*)\(`)
	benchRefRE = regexp.MustCompile(`\bBenchmark[A-Z0-9]\w*`)
	exRefRE    = regexp.MustCompile(`\bExample(?:_\w+|[A-Z]\w*)`)
	cmdRefRE   = regexp.MustCompile(`\b(cmd|examples)/(\w+)`)
	makeRefRE  = regexp.MustCompile("`make\\s+([\\w-]+)")
	makeRuleRE = regexp.MustCompile(`(?m)^([\w-]+):`)
	pathRefRE  = regexp.MustCompile(`\bscripts/[\w./-]*\w|\bBENCH[_]\w+\.json|\b\w+_output\.txt`)
	qualRefRE  = regexp.MustCompile(`\b(\w+)\.([A-Z]\w*)`)
)

// TestDocsNameExistingSurfaces keeps the docs from pointing at things
// that are not in the repository: every Benchmark… and Example…
// identifier is defined in some _test.go, every cmd/<x> and
// examples/<x> is a directory, every
// backticked `make <target>` is a Makefile target, every path
// under scripts/, every BENCH-prefixed JSON file and every
// …_output.txt file the docs name exists, and every <pkg>.<Exported>
// names a top-level func, method, type, var or const of that package,
// where <pkg> is clockrlc or a directory under internal/.
func TestDocsNameExistingSurfaces(t *testing.T) {
	funcs := map[string]bool{} // Benchmark… and Example… functions
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
		for _, m := range testFuncRE.FindAllStringSubmatch(string(src), -1) {
			funcs[m[1]] = true
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
	pkgDirs := map[string]string{"clockrlc": "."}
	internal, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range internal {
		if d.IsDir() {
			pkgDirs[d.Name()] = filepath.Join("internal", d.Name())
		}
	}
	declared := map[string]map[string]bool{}
	for pkg, dir := range pkgDirs {
		if declared[pkg], err = declaredNames(dir); err != nil {
			t.Fatal(err)
		}
	}

	for _, doc := range docFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, ref := range append(benchRefRE.FindAllString(text, -1), exRefRE.FindAllString(text, -1)...) {
			if !funcs[ref] {
				t.Errorf("%s names %s, which no _test.go defines", doc, ref)
			}
		}
		for _, m := range cmdRefRE.FindAllStringSubmatch(text, -1) {
			if fi, err := os.Stat(filepath.Join(m[1], m[2])); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s/%s, which is not a directory", doc, m[1], m[2])
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
		for _, m := range qualRefRE.FindAllStringSubmatch(text, -1) {
			if names, ok := declared[m[1]]; ok && !names[m[2]] {
				t.Errorf("%s names %s.%s, which package %s does not declare", doc, m[1], m[2], m[1])
			}
		}
	}
}

// declaredNames returns the top-level funcs, methods, types, vars and
// consts declared in the Go files of dir, test files included: the docs
// cite tests by name.
func declaredNames(dir string) (map[string]bool, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				names[d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names, nil
}
