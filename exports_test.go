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

// testOnlyExports lists the exported top-level functions (pkg.Name) and
// methods (pkg.(Type).Method) under internal/ that no program file calls,
// each with the reason it stays. An entry backs a claim of the paper, an
// extension in DESIGN.md §5, or the library API that README.md documents;
// its tests keep it honest. Anything else that only tests reach is deleted,
// not listed here.
var testOnlyExports = map[string]string{
	"control.(PID).Integral":                   "paper claim: integral anti-windup (Section 3.1) is checked on the accumulator",
	"control.Analyze":                          "DESIGN.md §5: gain/phase-margin robustness analysis",
	"control.Bode":                             "DESIGN.md §5: frequency-domain robustness analysis",
	"control.TuneForSettling":                  "DESIGN.md §5: settling-time-guaranteed controller design",
	"control.VerifySettling":                   "DESIGN.md §5: checks a TuneForSettling design on the saturating loop",
	"dtm.(MultiCT).Controllers":                "DESIGN.md §5: per-block controllers, each tuned against its own block's plant",
	"dtm.NewHierarchy":                         "DESIGN.md §5: hierarchical toggling-then-scaling DTM (Section 2.1)",
	"experiments.SeedStudy":                    "README API: workload-seed sensitivity of the policy results",
	"floorplan.Capacitance":                    "paper claim: first-principles block capacitance (Section 4.1)",
	"floorplan.NormalResistance":               "paper claim: first-principles normal resistance (Section 4.1)",
	"power.(LeakageModel).RunawayDynamicPower": "DESIGN.md §5: temperature-dependent leakage with runaway analysis",
	"power.DefaultLeakage":                     "DESIGN.md §5: temperature-dependent leakage",
	"runindex.(Catalog).FullScan":              "reference implementation: the no-index scan the indexed queries are checked and benchmarked against (T4/T5)",
	"sensor.SelectSensors":                     "DESIGN.md §5: optimal limited-sensor placement (Section 4.2)",
	"sensor.UniformBank":                       "DESIGN.md §5: noisy/offset sensors on the multicore die",
	"telemetry.DecodeTrace":                    "README API: reads a JSONL telemetry trace back",
	"thermal.(ChipModel).SteadyState":          "paper claim: RC steady state T = Tsink + R·P of the chip-wide model",
	"thermal.(FullNetwork).BlockTemp":          "DESIGN.md §5: full Figure 3B network validating the 3C simplification",
	"thermal.(FullNetwork).StepBlocks":         "DESIGN.md §5: full Figure 3B network validating the 3C simplification",
	"thermal.(Network).SteadyState":            "paper claim: RC steady state T = Tsink + R·P that the integrators settle to",
	"thermal.(Solver).SteadyState":             "DESIGN.md §5: full Figure 3B network validating the 3C simplification",
	"thermal.NewFullNetwork":                   "DESIGN.md §5: full Figure 3B network validating the 3C simplification",
	"thermal.StepResponse":                     "paper claim: analytic RC step response the integrators are checked against",
}

// implicitMethods are the method names that the language or the standard
// library calls through an interface, so program code need not name them.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"Read": true, "Write": true, "Close": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// TestNoTestOnlyExports keeps production code that only tests reach from
// accumulating: every exported top-level function and exported method
// declared under internal/ must be referenced by some non-test .go file in
// the repository (commands, examples, other packages and perfbench/ all
// count), or be on the testOnlyExports allowlist with its reason.
// References are counted syntactically. A function is reached by pkg.Name
// from a file importing the package, or by Name from another declaration
// in the same package. A method is reached by any selector of its name
// outside its own body (x.Method, T.Method), whatever the receiver, or by
// being one of implicitMethods.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		key    string // pkg.Name or pkg.(Type).Method
		use    string // a function's import path + "." + Name
		method string // a method's name; "" for a function
		file   string
	}
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
		short := pkg[len("repro/internal/"):]
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			switch name := fd.Name.Name; {
			case fd.Recv == nil:
				decls = append(decls, decl{key: short + "." + name, use: pkg + "." + name, file: path})
			case !implicitMethods[name]:
				decls = append(decls, decl{key: methodKey(short, fd), method: name, file: path})
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

	// used[pkg+"."+name] is set by every reference to a function outside
	// its own declaration. selected[name] holds the methods (by key, "" for
	// any other declaration) whose code selects name.
	used := make(map[string]bool)
	selected := make(map[string]map[string]bool)
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
			self, owner := "", "" // a function's calls to itself do not count
			var nodes []ast.Node
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fd.Recv == nil {
					self = fd.Name.Name
				} else {
					if strings.HasPrefix(paths[i], "repro/internal/") {
						owner = methodKey(paths[i][len("repro/internal/"):], fd)
					}
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
					if selected[n.Sel.Name] == nil {
						selected[n.Sel.Name] = make(map[string]bool)
					}
					selected[n.Sel.Name][owner] = true
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
	reached := func(d decl) bool {
		if d.method == "" {
			return used[d.use]
		}
		for owner := range selected[d.method] {
			if owner != d.key {
				return true
			}
		}
		return false
	}

	var unused []string
	declared := make(map[string]bool)
	for _, d := range decls {
		declared[d.key] = true
		if reached(d) {
			if _, ok := testOnlyExports[d.key]; ok {
				t.Errorf("%s is called by program code now; drop it from testOnlyExports", d.key)
			}
			continue
		}
		if _, ok := testOnlyExports[d.key]; !ok {
			unused = append(unused, d.key+" ("+d.file+")")
		}
	}
	for key := range testOnlyExports {
		if !declared[key] {
			t.Errorf("testOnlyExports lists %s, which is not an exported top-level function or method under internal/", key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but only tests reach it: delete it, or list it in testOnlyExports with the paper claim, DESIGN.md §5 extension or README API it backs", u)
	}
}

// methodKey names the method fd of package pkg as pkg.(Type).Method.
func methodKey(pkg string, fd *ast.FuncDecl) string {
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	return pkg + ".(" + typ.(*ast.Ident).Name + ")." + fd.Name.Name
}
