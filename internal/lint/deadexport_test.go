package lint_test

import (
	"bufio"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"graphitti/internal/lint"
)

// dynamicIfaces are the interfaces the standard library finds by type
// assertion on a value it was handed as any (fmt's Stringer, json's
// Marshaler, io.Copy's WriterTo, ...). A module that passes a value to
// fmt or json reaches these methods without ever naming the interface.
var dynamicIfaces = map[string][]string{
	"fmt":           {"Stringer", "GoStringer", "Formatter"},
	"encoding":      {"TextMarshaler", "TextUnmarshaler", "BinaryMarshaler", "BinaryUnmarshaler"},
	"encoding/json": {"Marshaler", "Unmarshaler"},
	"io":            {"WriterTo", "ReaderFrom", "ByteWriter", "StringWriter"},
}

// deadExports returns, by types.Func full name, each exported function or
// method declared in an internal/ package of the first load that no
// non-test code of any load refers to. A use inside the function's own
// body does not count. A method is exempt when its receiver implements an
// interface the loads mention (as the type of a name or an expression, or
// as a parameter a value is passed to) or one of dynamicIfaces. The
// second and later loads are other modules that import the first (bench/
// through its replace directive): they count as callers only.
func deadExports(loads ...[]*lint.Package) map[string]token.Position {
	internal := make(map[string]bool)
	decls := make(map[string]token.Position)
	for _, p := range loads[0] {
		if !slices.Contains(strings.Split(p.Path, "/"), "internal") {
			continue
		}
		internal[p.Path] = true
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					decls[p.Info.Defs[fd.Name].(*types.Func).FullName()] = p.Fset.Position(fd.Pos())
				}
			}
		}
	}
	used := make(map[string]bool)
	for _, pkgs := range loads {
		for _, p := range pkgs {
			for _, f := range p.Files {
				for _, d := range f.Decls {
					var self types.Object
					if fd, ok := d.(*ast.FuncDecl); ok {
						self = p.Info.Defs[fd.Name]
					}
					ast.Inspect(d, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							if fn, ok := p.Info.Uses[id].(*types.Func); ok && fn.Origin() != self {
								used[fn.Origin().FullName()] = true
							}
						}
						return true
					})
				}
			}
		}
		markInterfaceMethods(pkgs, internal, used)
	}
	dead := make(map[string]token.Position)
	for name, pos := range decls {
		if !used[name] {
			dead[name] = pos
		}
	}
	return dead
}

// markInterfaceMethods marks as used every method of a named type of pkgs,
// or of an internal package they import, that some interface mentioned in
// pkgs selects: the method a call through that interface would run,
// promoted through embedding or not.
func markInterfaceMethods(pkgs []*lint.Package, internal map[string]bool, used map[string]bool) {
	var ifaces []*types.Interface
	seenIface := make(map[*types.Interface]bool)
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seenIface[it] {
			seenIface[it] = true
			ifaces = append(ifaces, it)
		}
	}
	var named []types.Type
	seenNamed := make(map[types.Type]bool)
	addNamed := func(t types.Type) {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		n, ok := t.(*types.Named)
		if !ok || n.Obj().Pkg() == nil || seenNamed[n] || types.IsInterface(n) {
			return
		}
		if n.TypeParams().Len() > 0 && n.TypeArgs().Len() == 0 {
			return // an uninstantiated generic type: its instances are added where used
		}
		seenNamed[n] = true
		named = append(named, n)
	}
	addType := func(t types.Type) {
		addIface(t)
		addNamed(t)
		if sig, ok := t.(*types.Signature); ok {
			for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
				for v := range tup.Variables() {
					addIface(v.Type())
					if s, ok := v.Type().(*types.Slice); ok && sig.Variadic() {
						addIface(s.Elem())
					}
				}
			}
		}
	}
	pkgsByPath := make(map[string]*types.Package)
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if pkgsByPath[tp.Path()] != nil {
			return
		}
		pkgsByPath[tp.Path()] = tp
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.Pkg)
		for _, tv := range p.Info.Types {
			addType(tv.Type)
		}
		for _, objs := range []map[*ast.Ident]types.Object{p.Info.Defs, p.Info.Uses} {
			for _, obj := range objs {
				switch obj.(type) {
				case *types.TypeName, *types.Var:
					addType(obj.Type())
				}
			}
		}
	}
	for path, names := range dynamicIfaces {
		if tp := pkgsByPath[path]; tp != nil {
			for _, name := range names {
				if obj := tp.Scope().Lookup(name); obj != nil {
					addIface(obj.Type())
				}
			}
		}
	}
	// errors.Is/As and http.ResponseController assert these unnamed.
	unwrapTo := func(t types.Type) *types.Interface {
		sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewParam(token.NoPos, nil, "", t)), false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", sig)}, nil).Complete()
	}
	addIface(unwrapTo(types.Universe.Lookup("error").Type()))
	if tp := pkgsByPath["net/http"]; tp != nil {
		addIface(unwrapTo(tp.Scope().Lookup("ResponseWriter").Type()))
	}
	for path, tp := range pkgsByPath {
		if internal[path] {
			for _, name := range tp.Scope().Names() {
				if obj, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
					addNamed(obj.Type())
				}
			}
		}
	}
	for _, t := range named {
		for _, recv := range []types.Type{t, types.NewPointer(t)} {
			for _, it := range ifaces {
				if !types.Implements(recv, it) {
					continue
				}
				for m := range it.Methods() {
					obj, _, _ := types.LookupFieldOrMethod(recv, false, m.Pkg(), m.Name())
					if fn, ok := obj.(*types.Func); ok {
						used[fn.Origin().FullName()] = true
					}
				}
			}
		}
	}
}

// loadModule type-checks every non-test package of the module at dir.
func loadModule(t *testing.T, dir string) []*lint.Package {
	t.Helper()
	pkgs, err := lint.Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	return pkgs
}

// readAllowList parses deadexport.txt: one "FullName  # reason" line per
// export that stays although no production code calls it.
func readAllowList(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := make(map[string]string)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		name, reason, _ := strings.Cut(text, "#")
		name, reason = strings.TrimSpace(name), strings.TrimSpace(reason)
		switch {
		case name == "":
			t.Errorf("%s:%d: no name", path, line)
		case reason == "":
			t.Errorf("%s:%d: %s gives no reason", path, line, name)
		case allow[name] != "":
			t.Errorf("%s:%d: %s listed twice", path, line, name)
		default:
			allow[name] = reason
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

// TestNoDeadExports fails when an exported function or method of an
// internal/ package has no caller in the non-test code of the module or of
// bench/, unless testdata/deadexport.txt lists it with a reason. It also
// fails on a listed name that has a caller again, so the list stays exact.
func TestNoDeadExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dead := deadExports(loadModule(t, root), loadModule(t, filepath.Join(root, "bench")))
	allowPath := filepath.Join("testdata", "deadexport.txt")
	allow := readAllowList(t, allowPath)
	for _, name := range slices.Sorted(maps.Keys(dead)) {
		if allow[name] == "" {
			pos := dead[name]
			file, _ := filepath.Rel(root, pos.Filename)
			t.Errorf("%s:%d: %s has no non-test caller: delete it, or list it in %s with a reason", file, pos.Line, name, allowPath)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(allow)) {
		if _, ok := dead[name]; !ok {
			t.Errorf("%s lists %s, which has a non-test caller or is gone: drop its line", allowPath, name)
		}
	}
}

// TestDeadExportsFixture runs the check over a two-module fixture, the
// second module wired in through replace as bench/ is. It must flag the
// export with no caller and the one only its package's test calls, and
// none of: a method that satisfies flag.Value only as flag.Var's
// parameter, an export only the second module calls, and a generic method
// called only through an instantiation.
func TestDeadExportsFixture(t *testing.T) {
	dir := filepath.Join("testdata", "deadexport")
	dead := deadExports(loadModule(t, dir), loadModule(t, filepath.Join(dir, "second")))
	got := slices.Sorted(maps.Keys(dead))
	want := []string{
		"deadfix/internal/a.NoCaller",
		"deadfix/internal/a.OnlyTested",
	}
	if !slices.Equal(got, want) {
		t.Errorf("flagged %v, want %v", got, want)
	}
}
