package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports lists the exported top-level functions under internal/
// that no program file calls, each with the reason it stays. An entry
// backs a claim of the paper, an extension in DESIGN.md §5, or the library
// API that README.md documents; its tests keep it honest. Anything else
// that only tests reach is deleted, not listed here.
var testOnlyExports = map[string]string{
	"bench.NewRun":               "README API: the minimal library use builds a run with it",
	"bench.Policies":             "README API: names the policies bench.NewRun accepts",
	"control.Analyze":            "DESIGN.md §5: gain/phase-margin robustness analysis",
	"control.Bode":               "DESIGN.md §5: frequency-domain robustness analysis",
	"control.TuneForSettling":    "DESIGN.md §5: settling-time-guaranteed controller design",
	"control.VerifySettling":     "DESIGN.md §5: checks a TuneForSettling design on the saturating loop",
	"dtm.NewHierarchy":           "DESIGN.md §5: hierarchical toggling-then-scaling DTM (Section 2.1)",
	"experiments.SeedStudy":      "README API: workload-seed sensitivity of the policy results",
	"floorplan.Capacitance":      "paper claim: first-principles block capacitance (Section 4.1)",
	"floorplan.NormalResistance": "paper claim: first-principles normal resistance (Section 4.1)",
	"power.DefaultLeakage":       "DESIGN.md §5: temperature-dependent leakage",
	"sensor.SelectSensors":       "DESIGN.md §5: optimal limited-sensor placement (Section 4.2)",
	"sensor.UniformBank":         "DESIGN.md §5: noisy/offset sensors on the multicore die",
	"telemetry.DecodeTrace":      "README API: reads a JSONL telemetry trace back",
	"thermal.NewFullNetwork":     "DESIGN.md §5: full Figure 3B network validating the 3C simplification",
	"thermal.StepResponse":       "paper claim: analytic RC step response the integrators are checked against",
}

// TestNoTestOnlyExports keeps production code that only tests reach from
// accumulating: every exported top-level function under internal/ must be
// referenced by some non-test .go file in the repository (commands,
// examples, other packages and perfbench/ all count), or be on the
// testOnlyExports allowlist with its reason. References are counted
// syntactically: pkg.Name from a file importing the package, or Name
// from another declaration in the same package.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ pkg, name, file string } // pkg is the import path
	var decls []decl
	var files []*ast.File
	var paths []string // import path of each file's package
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "repro/" + filepath.ToSlash(filepath.Dir(path))
		files = append(files, f)
		paths = append(paths, pkg)
		if !strings.HasPrefix(path, "internal"+string(filepath.Separator)) {
			return nil
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
				decls = append(decls, decl{pkg, fd.Name.Name, path})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported functions under internal/; is the test running from the repository root?")
	}

	// used[pkg+"."+name] is set by every reference outside the function's
	// own declaration.
	used := make(map[string]bool)
	for i, f := range files {
		imports := make(map[string]string) // local name -> import path
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		for _, d := range f.Decls {
			self := "" // a function's calls to itself do not count
			var nodes []ast.Node
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fd.Recv == nil {
					self = fd.Name.Name
				} else {
					nodes = append(nodes, fd.Recv)
				}
				nodes = append(nodes, fd.Type)
				if fd.Body != nil {
					nodes = append(nodes, fd.Body)
				}
			} else {
				nodes = append(nodes, d)
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if p, ok := imports[x.Name]; ok {
							used[p+"."+n.Sel.Name] = true
							return false
						}
					}
					ast.Inspect(n.X, visit) // n.Sel names a field or method
					return false
				case *ast.Ident:
					if n.Name != self {
						used[paths[i]+"."+n.Name] = true
					}
				}
				return true
			}
			for _, n := range nodes {
				ast.Inspect(n, visit)
			}
		}
	}

	var unused []string
	declared := make(map[string]bool)
	for _, d := range decls {
		key := d.pkg[len("repro/internal/"):] + "." + d.name
		declared[key] = true
		if used[d.pkg+"."+d.name] {
			if _, ok := testOnlyExports[key]; ok {
				t.Errorf("%s is called by program code now; drop it from testOnlyExports", key)
			}
			continue
		}
		if _, ok := testOnlyExports[key]; !ok {
			unused = append(unused, key+" ("+d.file+")")
		}
	}
	for key := range testOnlyExports {
		if !declared[key] {
			t.Errorf("testOnlyExports lists %s, which is not an exported top-level function under internal/", key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but only tests reach it: delete it, or list it in testOnlyExports with the paper claim, DESIGN.md §5 extension or README API it backs", u)
	}
}
