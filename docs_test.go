package clockrlc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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
	// memberRefRE matches T.M with M exported, optionally written
	// x.T.M.
	memberRefRE = regexp.MustCompile(`(?:\b(\w+)\.)?\b(\w+)\.([A-Z]\w*)`)
)

// TestDocsNameExistingSurfaces keeps the docs from pointing at things
// that are not in the repository: every Benchmark… and Example…
// identifier is defined in some _test.go, every cmd/<x> and
// examples/<x> is a directory, every
// backticked `make <target>` is a Makefile target, every path
// under scripts/, every BENCH-prefixed JSON file and every
// …_output.txt file the docs name exists, and every <pkg>.<Exported>
// names a top-level func, method, type, var or const of that package,
// where <pkg> is clockrlc or a directory under internal/. Every T.M,
// M exported, where T is a type one of those packages declares names a
// method, field or embedded field of T: facade aliases resolve to their
// targets, a T declared by several packages may take M from any of
// them, and x.T.M is checked against package x alone, or skipped when
// x is not one of the packages (http.Server.Shutdown).
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
	declared := map[string]*pkgDecls{}
	typePkgs := map[string][]string{} // type name → the packages declaring it
	for pkg, dir := range pkgDirs {
		if declared[pkg], err = declaredNames(dir); err != nil {
			t.Fatal(err)
		}
		for typ := range declared[pkg].members {
			typePkgs[typ] = append(typePkgs[typ], pkg)
		}
	}
	// hasMember reports whether type typ of package pkg, or the type a
	// facade alias of that name stands for, declares member.
	hasMember := func(pkg, typ, member string) bool {
		d := declared[pkg]
		if target, ok := d.aliases[typ]; ok && declared[target[0]] != nil {
			d, typ = declared[target[0]], target[1]
		}
		return d.members[typ][member]
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
			if d, ok := declared[m[1]]; ok && !d.names[m[2]] {
				t.Errorf("%s names %s.%s, which package %s does not declare", doc, m[1], m[2], m[1])
			}
		}
		for _, m := range memberRefRE.FindAllStringSubmatch(text, -1) {
			pkgs := typePkgs[m[2]]
			if m[1] != "" {
				if declared[m[1]] == nil {
					continue
				}
				pkgs = []string{m[1]}
			}
			if len(pkgs) == 0 || declared[pkgs[0]].members[m[2]] == nil {
				continue
			}
			if !slices.ContainsFunc(pkgs, func(pkg string) bool { return hasMember(pkg, m[2], m[3]) }) {
				t.Errorf("%s names %s, but no declaration of type %s has a method, field or embedded field %s", doc, m[0], m[2], m[3])
			}
		}
	}
}

// pkgDecls is what one package declares: every top-level name, the
// members (methods, fields, embedded fields) of each type, and the
// target {package, type} of each alias of another package's type.
type pkgDecls struct {
	names   map[string]bool
	members map[string]map[string]bool
	aliases map[string][2]string
}

// declaredNames returns the top-level funcs, methods, types, vars and
// consts declared in the Go files of dir, test files included (the docs
// cite tests by name), with each type's members and each type alias.
func declaredNames(dir string) (*pkgDecls, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	d := &pkgDecls{names: map[string]bool{}, members: map[string]map[string]bool{}, aliases: map[string][2]string{}}
	member := func(typ, name string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]bool{}
		}
		d.members[typ][name] = true
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				d.names[decl.Name.Name] = true
				if decl.Recv != nil {
					if typ := typeName(decl.Recv.List[0].Type); typ != "" {
						member(typ, decl.Name.Name)
					}
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						typ := s.Name.Name
						d.names[typ] = true
						if d.members[typ] == nil {
							d.members[typ] = map[string]bool{}
						}
						if sel, ok := s.Type.(*ast.SelectorExpr); ok && s.Assign.IsValid() {
							if pkg, ok := sel.X.(*ast.Ident); ok {
								d.aliases[typ] = [2]string{pkg.Name, sel.Sel.Name}
							}
						}
						var fields *ast.FieldList
						switch t := s.Type.(type) {
						case *ast.StructType:
							fields = t.Fields
						case *ast.InterfaceType:
							fields = t.Methods
						}
						if fields == nil {
							continue
						}
						for _, fl := range fields.List {
							for _, n := range fl.Names {
								member(typ, n.Name)
							}
							if len(fl.Names) == 0 { // embedded
								if name := typeName(fl.Type); name != "" {
									member(typ, name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							d.names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return d, nil
}

// typeName returns the name of the type a receiver or embedded field
// expression denotes: T, *T, pkg.T and T[P] all give T.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	}
	return ""
}
