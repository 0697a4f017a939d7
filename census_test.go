package repro

// The caller census: every exported function and method declared in a
// non-test file under internal/ must have a caller in non-test code,
// or be listed in testdata/census_allow.txt with the reason it stays.
//
// The census type-checks, from source with the standard library's
// go/types, every package of the main module and of towerbench (its
// own module, which imports this one). A reference counts from any
// non-test file: the declaring package, another internal package,
// cmd/, examples/ or towerbench/. A reference from inside the
// declaration itself (recursion) does not.
//
// Two kinds of method are skipped, because they are called through an
// interface rather than by name: a method whose name is a method of an
// interface declared in the module, and a method that implements
// error, fmt.Stringer, Unwrap, io.Reader, io.Writer or io.Closer.
//
// The option census, in the same pass, checks the fields of input
// structs: exported struct types under internal/ that non-test code
// outside their package builds with a composite literal (the config
// structs callers fill in). Each exported field of an input struct must
// be written by non-test code outside its package, as a composite-
// literal key, an assignment or increment target, or an operand of &.
// A field only tests or its own package set is a knob no deployment
// turns; it becomes a constant, or an allowlist line says why it stays.
//
// An allowlist entry that no longer names an uncalled declaration or an
// unset field is stale and fails the census too, so the list only
// shrinks by hand.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

const (
	censusModule    = "repro"
	censusAllowFile = "testdata/census_allow.txt"
)

// stdInterfaces declares, in source, the standard interfaces whose
// methods the census skips.
const stdInterfaces = `package p
type _ interface {
	Error() string
	String() string
	Unwrap() error
	Read([]byte) (int, error)
	Write([]byte) (int, error)
	Close() error
}
type _ interface{ Unwrap() []error }
`

// censusLoader type-checks module packages on demand. It is the
// importer for its own packages, so a declaration has one types.Object
// however many packages refer to it; standard packages go to the
// "source" importer.
type censusLoader struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	ctxt  build.Context
	info  *types.Info
	pkgs  map[string]*types.Package
	files map[string][]*ast.File // non-test files per import path
}

func (l *censusLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *censusLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path != censusModule && !strings.HasPrefix(path, censusModule+"/") {
		return l.std.ImportFrom(path, dir, mode)
	}
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil
	rel := "." + strings.TrimPrefix(path, censusModule)
	files, err := l.parseDir(filepath.FromSlash(rel))
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	l.pkgs[path], l.files[path] = p, files
	return p, nil
}

// parseDir parses the non-test Go files of dir that build on this
// platform with the default tags.
func (l *censusLoader) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := l.ctxt.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// censusPackages lists the import path of every directory that holds a
// non-test Go file, skipping testdata and dot or underscore directories
// (build output).
func censusPackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			n := d.Name()
			if p != "." && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			dir := filepath.ToSlash(filepath.Dir(p))
			path := censusModule
			if dir != "." {
				path += "/" + dir
			}
			if len(paths) == 0 || paths[len(paths)-1] != path {
				paths = append(paths, path)
			}
		}
		return nil
	})
	return paths, err
}

// censusItem is one exported function or method, or one exported field
// of an input struct, under internal/.
type censusItem struct {
	field      bool   // a field of an input struct, not a function or method
	pkg, ident string // pkg relative to internal/; ident is F, T.M or T.F
	pos        token.Position
	uses       int // non-test callers, or non-test writers outside pkg
}

var census struct {
	once  sync.Once
	items []censusItem
	err   error
}

// loadCensus runs the census once per test binary; both tests share
// the result.
func loadCensus() ([]censusItem, error) {
	census.once.Do(func() { census.items, census.err = runCensus() })
	return census.items, census.err
}

// runCensus type-checks the module and towerbench and runs both
// censuses over them.
func runCensus() ([]censusItem, error) {
	fset := token.NewFileSet()
	l := &censusLoader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		ctxt: build.Default,
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
	}
	paths, err := censusPackages()
	if err != nil {
		return nil, err
	}
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
	}
	items, err := callerCensus(l)
	if err != nil {
		return nil, err
	}
	items = append(items, optionCensus(l)...)
	sort.Slice(items, func(i, j int) bool {
		if items[i].pkg != items[j].pkg {
			return items[i].pkg < items[j].pkg
		}
		return items[i].ident < items[j].ident
	})
	return items, nil
}

// callerCensus returns every exported function and method under
// internal/ (skipped interface methods left out) with its count of
// non-test references.
func callerCensus(l *censusLoader) ([]censusItem, error) {
	skip, err := skippedMethods(l)
	if err != nil {
		return nil, err
	}
	uses := map[types.Object][]token.Pos{}
	for id, obj := range l.info.Uses {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		uses[obj] = append(uses[obj], id.Pos())
	}

	var decls []censusItem
	for path, files := range l.files {
		rel, ok := strings.CutPrefix(path, censusModule+"/internal/")
		if !ok {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := l.info.Defs[fd.Name].(*types.Func)
				ident := fd.Name.Name
				if fd.Recv != nil {
					if skip(fn) {
						continue
					}
					ident = recvName(fd.Recv.List[0].Type) + "." + ident
				}
				n := 0
				for _, pos := range uses[fn] {
					if pos < fd.Pos() || pos >= fd.End() {
						n++
					}
				}
				decls = append(decls, censusItem{pkg: rel, ident: ident, pos: l.fset.Position(fd.Pos()), uses: n})
			}
		}
	}
	return decls, nil
}

// optionCensus returns every exported field of every input struct with
// its count of non-test writes from outside the struct's package.
func optionCensus(l *censusLoader) []censusItem {
	inputs := map[*types.TypeName]bool{}
	writes := map[*types.Var]int{}
	write := func(from *types.Package, v *types.Var) {
		if v = v.Origin(); v.Pkg() != from {
			writes[v]++
		}
	}
	writeExpr := func(from *types.Package, e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := l.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				write(from, s.Obj().(*types.Var))
			}
		}
	}
	for path, files := range l.files {
		from := l.pkgs[path]
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CompositeLit:
					st, tn := censusStruct(l.info.Types[x].Type)
					if st == nil {
						return true
					}
					if tn.Pkg() != from && tn.Exported() && strings.HasPrefix(tn.Pkg().Path(), censusModule+"/internal/") {
						inputs[tn] = true
					}
					for i, elt := range x.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if v, ok := l.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								write(from, v)
							}
						} else if i < st.NumFields() {
							write(from, st.Field(i))
						}
					}
				case *ast.AssignStmt:
					if x.Tok != token.DEFINE {
						for _, e := range x.Lhs {
							writeExpr(from, e)
						}
					}
				case *ast.IncDecStmt:
					writeExpr(from, x.X)
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						writeExpr(from, x.X)
					}
				}
				return true
			})
		}
	}
	var fields []censusItem
	for tn := range inputs {
		st := tn.Type().Underlying().(*types.Struct)
		rel := strings.TrimPrefix(tn.Pkg().Path(), censusModule+"/internal/")
		for i := 0; i < st.NumFields(); i++ {
			if v := st.Field(i); v.Exported() {
				fields = append(fields, censusItem{field: true, pkg: rel, ident: tn.Name() + "." + v.Name(), pos: l.fset.Position(v.Pos()), uses: writes[v]})
			}
		}
	}
	return fields
}

// censusStruct returns the struct a composite literal of type t builds
// and the named type it is declared as (both nil for other literals).
func censusStruct(t types.Type) (*types.Struct, *types.TypeName) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return nil, nil
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	return st, n.Origin().Obj()
}

// skippedMethods returns the test for methods called through an
// interface: their name is a method of an interface written in the
// module, or they implement one of stdInterfaces.
func skippedMethods(l *censusLoader) (func(*types.Func) bool, error) {
	names := map[string]bool{}
	for _, tv := range l.info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	f, err := parser.ParseFile(l.fset, "std.go", stdInterfaces, 0)
	if err != nil {
		return nil, err
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	if _, err := new(types.Config).Check("p", l.fset, []*ast.File{f}, info); err != nil {
		return nil, err
	}
	std := map[string][]types.Type{}
	for _, tv := range info.Types {
		if it, ok := tv.Type.(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				std[m.Name()] = append(std[m.Name()], m.Type())
			}
		}
	}
	return func(fn *types.Func) bool {
		if names[fn.Name()] {
			return true
		}
		for _, sig := range std[fn.Name()] {
			if types.Identical(sig, fn.Type()) { // receivers are ignored
				return true
			}
		}
		return false
	}, nil
}

// recvName is the receiver's type name without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprint(e)
		}
	}
}

// censusAllow is one allowlist line, "pkg ident reason...", where pkg
// is relative to internal/ and ident is F, T.M, T.F, or * for every
// function and method of the package (fields are always listed one by
// one). The reason is for the reader; the census only requires one.
type censusAllow struct {
	pkg, ident string
	line       int
}

func readCensusAllow(path string) ([]censusAllow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []censusAllow
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("%s:%d: want \"pkg ident reason\", got %q", path, n, line)
		}
		out = append(out, censusAllow{pkg: fields[0], ident: fields[1], line: n})
	}
	return out, sc.Err()
}

// censusProblem is one census failure. An allowlist problem that names
// no census item belongs to neither census, so both report it.
type censusProblem struct {
	field, either bool
	msg           string
}

// censusProblems checks both censuses against the allowlist. It reports
// each uncalled declaration and each unset field that no entry covers,
// each entry that covers nothing uncalled or unset, and each duplicate
// entry.
func censusProblems(items []censusItem, allow []censusAllow) []censusProblem {
	type key struct{ pkg, ident string }
	listed := map[key]censusAllow{}
	var probs []censusProblem
	for _, a := range allow {
		k := key{a.pkg, a.ident}
		if prev, dup := listed[k]; dup {
			probs = append(probs, censusProblem{either: true, msg: fmt.Sprintf("%s:%d: %s %s already listed at line %d", censusAllowFile, a.line, a.pkg, a.ident, prev.line)})
		}
		listed[k] = a
	}
	declared := map[key]censusItem{}
	pkgUncalled := map[string]bool{}
	for _, d := range items {
		declared[key{d.pkg, d.ident}] = d
		if d.uses > 0 {
			continue
		}
		_, one := listed[key{d.pkg, d.ident}]
		if d.field {
			if !one {
				probs = append(probs, censusProblem{field: true, msg: fmt.Sprintf("%s: internal/%s.%s is never set outside its package and tests: make it a constant holding its default, or list it in %s with the reason it stays", d.pos, d.pkg, d.ident, censusAllowFile)})
			}
			continue
		}
		pkgUncalled[d.pkg] = true
		if _, all := listed[key{d.pkg, "*"}]; !one && !all {
			probs = append(probs, censusProblem{msg: fmt.Sprintf("%s: internal/%s.%s has no caller outside tests: delete it, or list it in %s with the reason it stays", d.pos, d.pkg, d.ident, censusAllowFile)})
		}
	}
	for _, a := range allow {
		var p censusProblem
		d, ok := declared[key{a.pkg, a.ident}]
		switch {
		case a.ident == "*":
			if !pkgUncalled[a.pkg] {
				p.msg = "the package has no uncalled exported function or method"
			}
		case !ok:
			p = censusProblem{either: true, msg: "it is no longer declared (or is now skipped as an interface method, or no longer a field of an input struct)"}
		case d.uses > 0 && d.field:
			p = censusProblem{field: true, msg: fmt.Sprintf("it is now set outside its package (%d write(s))", d.uses)}
		case d.uses > 0:
			p.msg = fmt.Sprintf("it now has %d caller(s)", d.uses)
		}
		if p.msg != "" {
			p.msg = fmt.Sprintf("%s:%d: stale entry %s %s: %s; remove the line", censusAllowFile, a.line, a.pkg, a.ident, p.msg)
			probs = append(probs, p)
		}
	}
	return probs
}

// checkCensus runs the shared census and reports the problems of one
// kind: the caller census (field false) or the option census.
func checkCensus(t *testing.T, field bool) {
	items, err := loadCensus()
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readCensusAllow(censusAllowFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range censusProblems(items, allow) {
		if p.field == field || p.either {
			t.Error(p.msg)
		}
	}
	n := 0
	for _, d := range items {
		if d.field == field {
			n++
		}
	}
	if field {
		t.Logf("%d exported fields of input structs under internal/, %d allowlist entries", n, len(allow))
	} else {
		t.Logf("%d exported functions and methods under internal/, %d allowlist entries", n, len(allow))
	}
}

func TestCallerCensus(t *testing.T) { checkCensus(t, false) }

func TestOptionCensus(t *testing.T) { checkCensus(t, true) }
