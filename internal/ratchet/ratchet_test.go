// Package ratchet holds TestSourceRatchet, which keeps three counts of
// the module's non-test Go at zero: functions and methods that no
// program references, methods of the module's interfaces that no
// program calls through an interface, and ranges over a map that
// testdata/mapranges.txt does not list with a reason why map order
// cannot reach an output. DESIGN.md's "Source ratchet" paragraph gives
// the rules.
package ratchet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func TestSourceRatchet(t *testing.T) {
	t.Run("fixture", func(t *testing.T) {
		dir := filepath.Join("testdata", "fixture")
		allow := readFile(t, filepath.Join(dir, "mapranges.txt"))
		got := check(t, dir, nil, allow)
		want := []string{
			"impl/impl.go: impl.(*gadget).tune has no caller outside tests",
			"impl/impl.go: impl.sizer.Reset is never called through an interface",
			"impl/impl.go: impl.unusedHelper has no caller outside tests",
			"impl/impl.go: unlisted map range: impl/impl.go | impl.Count | m",
		}
		if !slices.Equal(got, want) {
			t.Errorf("fixture reports:\n\t%s\nwant:\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
		}
		stale := append(allow, "impl/impl.go | impl.Gone | m | order-free: count\n"...)
		got = check(t, dir, nil, stale)
		if want := "mapranges.txt: stale line, no such range: impl/impl.go | impl.Gone | m"; !slices.Contains(got, want) {
			t.Errorf("a stale allowlist line is not reported; got:\n\t%s", strings.Join(got, "\n\t"))
		}
	})
	t.Run("module", func(t *testing.T) {
		root := filepath.Join("..", "..")
		got := check(t, root, []string{filepath.Join(root, "perfbench")}, readFile(t, filepath.Join("testdata", "mapranges.txt")))
		for _, r := range got {
			t.Error(r)
		}
	})
}

// listedPackage is the part of `go list -json` the checker reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	Module     *struct{ Path, GoVersion string }
	Error      *struct{ Err string }
}

// goList lists the packages of the module in dir and every package
// they import, dependencies first, with the path of each one's
// compiled export data.
func goList(t *testing.T, dir string) []*listedPackage {
	cmd := exec.Command("go", "list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,Module,Error", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		if p.Error != nil {
			t.Fatalf("go list in %s: %s: %s", dir, p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
}

// sourcePackage is one type-checked non-standard package.
type sourcePackage struct {
	types   *types.Package
	files   []*ast.File
	info    *types.Info
	checked bool // its functions and map ranges are checked
}

// check type-checks every non-test package of the module in root and
// of the modules in readDirs, and returns one line per dead function
// or method of root's module, per method of an interface root's module
// declares that no package calls through an interface, and per
// unlisted map range or stale line of allow. The other modules'
// functions and calls are read, not checked.
func check(t *testing.T, root string, readDirs []string, allow []byte) []string {
	fset := token.NewFileSet()
	exports := map[string]string{}
	var order []*listedPackage
	var modulePath string
	for i, dir := range append([]string{root}, readDirs...) {
		for _, p := range goList(t, dir) {
			if _, seen := exports[p.ImportPath]; seen {
				continue
			}
			exports[p.ImportPath] = p.Export
			if !p.Standard {
				order = append(order, p)
			}
			if i == 0 && modulePath == "" && p.Module != nil {
				modulePath = p.Module.Path
			}
		}
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	rootAbs, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	src := map[string]*sourcePackage{}
	var pkgs []*sourcePackage
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if p := src[path]; p != nil {
				return p.types, nil
			}
			return gc.Import(path)
		}),
		Sizes: types.SizesFor("gc", runtime.GOARCH),
	}
	for _, lp := range order {
		if len(lp.GoFiles) == 0 {
			continue
		}
		sp := &sourcePackage{info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			sp.files = append(sp.files, f)
		}
		if lp.Module != nil {
			conf.GoVersion = "go" + lp.Module.GoVersion
			sp.checked = lp.Module.Path == modulePath
		}
		if sp.types, err = conf.Check(lp.ImportPath, fset, sp.files, sp.info); err != nil {
			t.Fatalf("type-checking %s: %v", lp.ImportPath, err)
		}
		src[lp.ImportPath] = sp
		pkgs = append(pkgs, sp)
	}
	var reports []string
	live := liveRoots(src[modulePath], pkgs)
	// viaIface holds the interface methods some package selects through
	// an interface-typed operand: an interface value, an embedding
	// interface or a type parameter constrained by one.
	viaIface := map[*types.Func]bool{}
	for _, sp := range pkgs {
		for _, sel := range sp.info.Selections { // order-free: set
			if types.IsInterface(sel.Recv()) {
				viaIface[sel.Obj().(*types.Func).Origin()] = true
			}
		}
		for _, f := range sp.files {
			for _, d := range f.Decls {
				var self *types.Func // nil outside a function declaration
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = sp.info.Defs[fd.Name].(*types.Func)
				}
				ast.Inspect(d, func(n ast.Node) bool {
					// A function's references to itself do not keep it live.
					if id, ok := n.(*ast.Ident); ok {
						if used, ok := sp.info.Uses[id].(*types.Func); ok && used.Origin() != self {
							live[used.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}
	listed := parseAllowlist(t, allow)
	found := map[string]bool{}
	for _, sp := range pkgs {
		if !sp.checked {
			continue
		}
		for _, f := range sp.files {
			rel, err := filepath.Rel(rootAbs, fset.Position(f.Pos()).Filename)
			if err != nil {
				t.Fatal(err)
			}
			file := filepath.ToSlash(rel)
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Assign.IsValid() {
					return true
				}
				if it, ok := sp.info.Defs[ts.Name].Type().Underlying().(*types.Interface); ok {
					for i := range it.NumExplicitMethods() {
						if m := it.ExplicitMethod(i); !viaIface[m] {
							reports = append(reports, fmt.Sprintf("%s: %s is never called through an interface", file, funcName(m)))
						}
					}
				}
				return true
			})
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := sp.info.Defs[fd.Name].(*types.Func)
				name := funcName(fn)
				entry := fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && sp.types.Name() == "main")
				if !entry && !live[fn] {
					reports = append(reports, fmt.Sprintf("%s: %s has no caller outside tests", file, name))
				}
				ast.Inspect(fd, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					if _, isMap := sp.info.Types[rs.X].Type.Underlying().(*types.Map); !isMap {
						return true
					}
					key := file + " | " + name + " | " + types.ExprString(rs.X)
					found[key] = true
					if !listed[key] {
						reports = append(reports, fmt.Sprintf("%s: unlisted map range: %s", file, key))
					}
					return true
				})
			}
		}
	}
	for key := range listed { // order-free: the reports are sorted below
		if !found[key] {
			reports = append(reports, "mapranges.txt: stale line, no such range: "+key)
		}
	}
	slices.Sort(reports)
	return reports
}

// liveRoots returns the functions and methods, other than main and
// init, that are live without a reference: the facade's exported
// functions, the exported methods of every type the facade exports or
// aliases, and every method that satisfies a method of an interface
// type in the program, the packages it imports, or errorsInterfaces.
func liveRoots(facade *sourcePackage, pkgs []*sourcePackage) map[*types.Func]bool {
	live := map[*types.Func]bool{}
	markMethods := func(t types.Type) {
		ms := types.NewMethodSet(types.NewPointer(t))
		for i := 0; i < ms.Len(); i++ {
			if fn := ms.At(i).Obj().(*types.Func); fn.Exported() {
				live[fn.Origin()] = true
			}
		}
	}
	if facade != nil {
		scope := facade.types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					live[obj] = true
				}
			case *types.TypeName:
				if obj.Exported() {
					markMethods(obj.Type())
				}
			}
		}
	}

	// Every interface type: named ones in the scope of each package,
	// source or imported, and literal ones written in source.
	var ifaces []*types.Interface
	addIface := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	visit(errorsInterfaces())
	for _, sp := range pkgs {
		visit(sp.types)
		for _, tv := range sp.info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
	}
	byName := map[string][]*types.Interface{}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
		}
	}

	for _, sp := range pkgs {
		for _, obj := range sp.info.Defs {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil {
				continue
			}
			base := recv.Type()
			if p, ok := base.(*types.Pointer); ok {
				base = p.Elem()
			}
			if n, ok := base.(*types.Named); !ok || n.TypeParams().Len() > 0 {
				continue
			}
			// *T's method set holds every method declared on T or *T.
			for _, it := range byName[fn.Name()] {
				if types.Implements(types.NewPointer(base), it) {
					live[fn] = true
					break
				}
			}
		}
	}
	return live
}

// errorsInterfaces type-checks the interfaces errors.Is and errors.As
// call an error's methods through. The errors package declares them
// inside its functions, out of every package scope, so the ratchet
// cannot find them there: Unwrap in both forms, Is and As.
func errorsInterfaces() *types.Package {
	const src = `package errors

type (
	wrapper      interface{ Unwrap() error }
	multiWrapper interface{ Unwrap() []error }
	iser         interface{ Is(error) bool }
	aser         interface{ As(any) bool }
)
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "errors.go", src, 0)
	if err != nil {
		panic(err)
	}
	p, err := new(types.Config).Check("errors", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	return p
}

// funcName names fn as pkg.Func, pkg.T.Method or pkg.(*T).Method.
func funcName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	if p, ok := recv.Type().(*types.Pointer); ok {
		return fmt.Sprintf("%s.(*%s).%s", fn.Pkg().Name(), p.Elem().(*types.Named).Obj().Name(), fn.Name())
	}
	return fmt.Sprintf("%s.%s.%s", fn.Pkg().Name(), recv.Type().(*types.Named).Obj().Name(), fn.Name())
}

// reasons are the accepted beginnings of an allowlist line's reason.
var reasons = []string{
	"sorted right after",
	"order-free: count",
	"order-free: set",
	"order-free: any-of",
	"order-free: minimum",
	"order-free: per-entry update",
}

// parseAllowlist reads lines of the form
//
//	file | enclosing function | ranged expression | reason
//
// skipping blank lines and # comments, and keys them by their first
// three fields.
func parseAllowlist(t *testing.T, data []byte) map[string]bool {
	listed := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, " | ")
		if len(fields) != 4 {
			t.Fatalf("mapranges.txt:%d: want file | function | expression | reason, got %q", n, line)
		}
		reason := fields[3]
		if !slices.ContainsFunc(reasons, func(r string) bool { return strings.HasPrefix(reason, r) }) {
			t.Fatalf("mapranges.txt:%d: reason %q begins with none of %q", n, reason, reasons)
		}
		key := strings.Join(fields[:3], " | ")
		if listed[key] {
			t.Fatalf("mapranges.txt:%d: %s listed twice", n, key)
		}
		listed[key] = true
	}
	return listed
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func readFile(t *testing.T, path string) []byte {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
