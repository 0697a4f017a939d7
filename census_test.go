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
// An allowlist entry that no longer names an uncalled declaration is
// stale and fails the census too, so the list only shrinks by hand.

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

// censusDecl is one exported function or method under internal/.
type censusDecl struct {
	pkg, ident string // pkg relative to internal/; ident is F or T.M
	pos        token.Position
	callers    int
}

// runCensus returns every exported function and method under internal/
// (skipped interface methods left out) with its count of non-test
// references.
func runCensus() ([]censusDecl, error) {
	fset := token.NewFileSet()
	l := &censusLoader{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		ctxt:  build.Default,
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
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

	var decls []censusDecl
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
				decls = append(decls, censusDecl{pkg: rel, ident: ident, pos: fset.Position(fd.Pos()), callers: n})
			}
		}
	}
	sort.Slice(decls, func(i, j int) bool {
		if decls[i].pkg != decls[j].pkg {
			return decls[i].pkg < decls[j].pkg
		}
		return decls[i].ident < decls[j].ident
	})
	return decls, nil
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
// is relative to internal/ and ident is F, T.M, or * for the package.
// The reason is for the reader; the census only requires one.
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

// censusProblems checks the census against the allowlist. It reports
// each uncalled declaration that no entry covers, each entry that
// covers nothing uncalled, and each duplicate entry.
func censusProblems(decls []censusDecl, allow []censusAllow) []string {
	type key struct{ pkg, ident string }
	listed := map[key]censusAllow{}
	var probs []string
	for _, a := range allow {
		k := key{a.pkg, a.ident}
		if prev, dup := listed[k]; dup {
			probs = append(probs, fmt.Sprintf("%s:%d: %s %s already listed at line %d", censusAllowFile, a.line, a.pkg, a.ident, prev.line))
		}
		listed[k] = a
	}
	declared := map[key]censusDecl{}
	pkgUncalled := map[string]bool{}
	for _, d := range decls {
		declared[key{d.pkg, d.ident}] = d
		if d.callers > 0 {
			continue
		}
		pkgUncalled[d.pkg] = true
		_, one := listed[key{d.pkg, d.ident}]
		_, all := listed[key{d.pkg, "*"}]
		if !one && !all {
			probs = append(probs, fmt.Sprintf("%s: internal/%s.%s has no caller outside tests: delete it, or list it in %s with the reason it stays", d.pos, d.pkg, d.ident, censusAllowFile))
		}
	}
	for _, a := range allow {
		var stale string
		if a.ident == "*" {
			if !pkgUncalled[a.pkg] {
				stale = "the package has no uncalled exported function or method"
			}
		} else if d, ok := declared[key{a.pkg, a.ident}]; !ok {
			stale = "it is no longer declared (or is now skipped as an interface method)"
		} else if d.callers > 0 {
			stale = fmt.Sprintf("it now has %d caller(s)", d.callers)
		}
		if stale != "" {
			probs = append(probs, fmt.Sprintf("%s:%d: stale entry %s %s: %s; remove the line", censusAllowFile, a.line, a.pkg, a.ident, stale))
		}
	}
	return probs
}

func TestCallerCensus(t *testing.T) {
	decls, err := runCensus()
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readCensusAllow(censusAllowFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range censusProblems(decls, allow) {
		t.Error(p)
	}
	t.Logf("%d exported functions and methods under internal/, %d allowlist entries", len(decls), len(allow))
}
