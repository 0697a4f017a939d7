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
// The option census also fails a field that is written, but only ever
// with one value: when every non-test write outside its package sets the
// same compile-time constant (a literal, or a named constant holding
// it), no deployment chooses it, and it becomes a constant too.
//
// The flag census checks the command-line surface: every flag a cmd/*
// package defines through the flag package (flag.X, flag.XVar, or the
// same methods of a FlagSet) must be passed by some command line that
// is run: a run: step of .github/workflows/ci.yml (folded ">" and
// literal "|" blocks included), or a "go run ./cmd/<tool> ..." line in
// README.md, EXPERIMENTS.md or examples/ (with "\" continuations
// joined). A command line that passes a flag its tool does not define
// fails too, so the docs cannot keep a deleted flag alive.
//
// An allowlist entry that no longer names an uncalled declaration, an
// unset or one-valued field, or an unpassed flag is stale and fails the
// census too, so the list only shrinks by hand.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

const (
	censusModule    = "repro"
	censusAllowFile = "testdata/census_allow.txt"
	censusCI        = ".github/workflows/ci.yml"
)

// censusDocs are the files, besides censusCI, whose "go run ./cmd/..."
// lines count as command lines for the flag census; a directory counts
// every file under it.
var censusDocs = []string{"README.md", "EXPERIMENTS.md", "examples"}

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

// censusKind names the census an item or a problem belongs to.
type censusKind int

const (
	censusFunc  censusKind = iota // exported function or method under internal/
	censusField                   // exported field of an input struct under internal/
	censusFlag                    // command-line flag of a cmd/* tool
)

// censusItem is one exported function or method, one exported field of
// an input struct, or one command-line flag.
type censusItem struct {
	kind       censusKind
	pkg, ident string // pkg relative to internal/ (cmd/<tool> for a flag); ident is F, T.M, T.F or -flag
	pos        token.Position
	uses       int    // non-test callers, non-test writers outside pkg, or command lines passing the flag (-1: an undefined flag a command line passes)
	only       string // a field's one value, when every write sets the same constant
}

// dead reports whether the item fails its census unless allowlisted.
func (d censusItem) dead() bool { return d.uses == 0 || d.only != "" }

var census struct {
	once  sync.Once
	items []censusItem
	err   error
}

// loadCensus runs the census once per test binary; the tests share
// the result.
func loadCensus() ([]censusItem, error) {
	census.once.Do(func() { census.items, census.err = runCensus() })
	return census.items, census.err
}

// runCensus type-checks the module and towerbench and runs the three
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
	flags, err := flagCensus(l)
	if err != nil {
		return nil, err
	}
	items = append(items, flags...)
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
				decls = append(decls, censusItem{kind: censusFunc, pkg: rel, ident: ident, pos: l.fset.Position(fd.Pos()), uses: n})
			}
		}
	}
	return decls, nil
}

// optionCensus returns every exported field of every input struct with
// its count of non-test writes from outside the struct's package and,
// when every one of them writes the same constant, that value.
func optionCensus(l *censusLoader) []censusItem {
	type fieldWrites struct {
		n      int
		one    string // the constant the writes set so far
		varied bool   // a write set a non-constant or a second value
	}
	inputs := map[*types.TypeName]bool{}
	writes := map[*types.Var]*fieldWrites{}
	// write records a write of val (nil when it is not a plain value:
	// an increment, an &, a tuple assignment) to v from package from.
	write := func(from *types.Package, v *types.Var, val ast.Expr) {
		if v = v.Origin(); v.Pkg() == from {
			return
		}
		w := writes[v]
		if w == nil {
			w = &fieldWrites{}
			writes[v] = w
		}
		w.n++
		c := ""
		if val != nil {
			if tv := l.info.Types[val]; tv.Value != nil {
				c = tv.Value.ExactString()
			}
		}
		switch {
		case c == "":
			w.varied = true
		case w.one == "":
			w.one = c
		case w.one != c:
			w.varied = true
		}
	}
	writeExpr := func(from *types.Package, e, val ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := l.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				write(from, s.Obj().(*types.Var), val)
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
								write(from, v, kv.Value)
							}
						} else if i < st.NumFields() {
							write(from, st.Field(i), elt)
						}
					}
				case *ast.AssignStmt:
					if x.Tok != token.DEFINE {
						for i, e := range x.Lhs {
							var val ast.Expr
							if x.Tok == token.ASSIGN && len(x.Rhs) == len(x.Lhs) {
								val = x.Rhs[i]
							}
							writeExpr(from, e, val)
						}
					}
				case *ast.IncDecStmt:
					writeExpr(from, x.X, nil)
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						writeExpr(from, x.X, nil)
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
			v := st.Field(i)
			if !v.Exported() {
				continue
			}
			d := censusItem{kind: censusField, pkg: rel, ident: tn.Name() + "." + v.Name(), pos: l.fset.Position(v.Pos())}
			if w := writes[v]; w != nil {
				d.uses = w.n
				if !w.varied {
					d.only = w.one
				}
			}
			fields = append(fields, d)
		}
	}
	return fields
}

// flagDefiner reports whether name is one of the flag package's
// defining functions (or FlagSet methods): X, XVar, Var, TextVar, Func
// or BoolFunc. The flag's name is the call's first constant string.
func flagDefiner(name string) bool {
	switch strings.TrimSuffix(name, "Var") {
	case "", "Text", "Func", "BoolFunc", "Bool", "Int", "Int64", "Uint", "Uint64", "String", "Float64", "Duration":
		return true
	}
	return false
}

// flagCensus returns every flag defined in a non-test file of a cmd/*
// package with the number of command lines that pass it. A passed flag
// its tool does not define comes back as an item with uses -1.
func flagCensus(l *censusLoader) ([]censusItem, error) {
	defined := map[[2]string]*censusItem{}
	for path, files := range l.files {
		rel, ok := strings.CutPrefix(path, censusModule+"/")
		if !ok || !strings.HasPrefix(rel, "cmd/") {
			continue
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := l.info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" || !flagDefiner(fn.Name()) {
					return true
				}
				for _, arg := range call.Args {
					if tv := l.info.Types[arg]; tv.Value != nil && tv.Value.Kind() == constant.String {
						name := constant.StringVal(tv.Value)
						defined[[2]string{rel, name}] = &censusItem{kind: censusFlag, pkg: rel, ident: "-" + name, pos: l.fset.Position(call.Pos())}
						break
					}
				}
				return true
			})
		}
	}
	cmds, err := censusCommands()
	if err != nil {
		return nil, err
	}
	var undefined []censusItem
	for _, c := range cmds {
		for _, name := range c.flags {
			if d := defined[[2]string{"cmd/" + c.tool, name}]; d != nil {
				d.uses++
			} else {
				undefined = append(undefined, censusItem{kind: censusFlag, pkg: "cmd/" + c.tool, ident: "-" + name, pos: token.Position{Filename: c.file}, uses: -1})
			}
		}
	}
	items := undefined
	for _, d := range defined {
		items = append(items, *d)
	}
	return items, nil
}

// censusCommand is one command line that runs a cmd/* tool: the tool's
// directory name and the flag names it passes, without dashes or
// values.
type censusCommand struct {
	file, tool string
	flags      []string
}

// censusCommands scans censusCI and censusDocs for command lines.
func censusCommands() ([]censusCommand, error) {
	ci, err := os.ReadFile(censusCI)
	if err != nil {
		return nil, err
	}
	cmds := scanCommands(censusCI, yamlRunSteps(string(ci)))
	for _, root := range censusDocs {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			cmds = append(cmds, scanCommands(p, string(b))...)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return cmds, nil
}

// yamlRunSteps returns the shell text of every run: key in a workflow,
// one step per line group: an inline value as it stands, a literal "|"
// block line by line, and a folded ">" block joined into one line.
func yamlRunSteps(yml string) string {
	var out []string
	lines := strings.Split(yml, "\n")
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		key := strings.Index(line, "run:")
		if key < 0 || strings.TrimLeft(strings.TrimSpace(line[:key]), "- ") != "" {
			continue
		}
		val := strings.TrimSpace(line[key+len("run:"):])
		if val == "" || (val[0] != '|' && val[0] != '>') {
			out = append(out, val)
			continue
		}
		indent := len(line) - len(strings.TrimLeft(line, " -"))
		var block []string
		for i+1 < len(lines) {
			next := lines[i+1]
			if strings.TrimSpace(next) != "" && len(next)-len(strings.TrimLeft(next, " ")) <= indent {
				break
			}
			block = append(block, strings.TrimSpace(next))
			i++
		}
		sep := "\n"
		if val[0] == '>' {
			sep = " "
		}
		out = append(out, strings.Join(block, sep))
	}
	return strings.Join(out, "\n")
}

var (
	goRunCmd  = regexp.MustCompile(`go run \./cmd/([A-Za-z0-9_-]+)`)
	shellStop = map[string]bool{"|": true, "||": true, "&&": true, ";": true, "&": true, ">": true, ">>": true, "<": true}
)

// scanCommands returns each "go run ./cmd/<tool> ..." command in text,
// with "\" line continuations joined. A command ends at the end of its
// line, at a closing backtick (inline Markdown code), at a shell
// operator or redirection, or at a comment.
func scanCommands(file, text string) []censusCommand {
	text = strings.ReplaceAll(text, "\\\n", " ")
	var cmds []censusCommand
	for _, line := range strings.Split(text, "\n") {
		for _, m := range goRunCmd.FindAllStringSubmatchIndex(line, -1) {
			c := censusCommand{file: file, tool: line[m[2]:m[3]]}
			rest, _, _ := strings.Cut(line[m[1]:], "`")
			for _, tok := range strings.Fields(rest) {
				if shellStop[tok] || strings.HasPrefix(tok, "#") || strings.HasPrefix(tok, "2>") || strings.HasPrefix(tok, ">") {
					break
				}
				if name := strings.TrimLeft(tok, "-"); name != "" && name != tok && len(tok)-len(name) <= 2 {
					name, _, _ = strings.Cut(name, "=")
					c.flags = append(c.flags, name)
				}
			}
			cmds = append(cmds, c)
		}
	}
	return cmds
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
// one), or pkg is cmd/<tool> and ident is -flag. The reason is for the
// reader; the census only requires one.
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
// no census item belongs to no one census, so every census reports it.
type censusProblem struct {
	kind   censusKind
	either bool
	msg    string
}

// censusProblems checks the censuses against the allowlist. It reports
// each uncalled declaration, unset or one-valued field and unpassed or
// undefined flag that no entry covers, each entry that covers nothing
// dead, and each duplicate entry.
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
		if d.uses < 0 {
			probs = append(probs, censusProblem{kind: censusFlag, msg: fmt.Sprintf("%s: a command line passes %s %s, which that tool does not define: update the command", d.pos.Filename, d.pkg, d.ident)})
			continue
		}
		declared[key{d.pkg, d.ident}] = d
		if !d.dead() {
			continue
		}
		_, one := listed[key{d.pkg, d.ident}]
		switch {
		case d.kind == censusFlag && !one:
			probs = append(probs, censusProblem{kind: censusFlag, msg: fmt.Sprintf("%s: %s %s is passed by no command line in %s, %s: delete it (its value becomes a constant), or list it in %s with the reason it stays", d.pos, d.pkg, d.ident, censusCI, strings.Join(censusDocs, ", "), censusAllowFile)})
		case d.kind == censusField && !one && d.only != "":
			probs = append(probs, censusProblem{kind: censusField, msg: fmt.Sprintf("%s: internal/%s.%s is only ever set to %s outside its package and tests: make it a constant holding that value, or list it in %s with the reason it stays", d.pos, d.pkg, d.ident, d.only, censusAllowFile)})
		case d.kind == censusField && !one:
			probs = append(probs, censusProblem{kind: censusField, msg: fmt.Sprintf("%s: internal/%s.%s is never set outside its package and tests: make it a constant holding its default, or list it in %s with the reason it stays", d.pos, d.pkg, d.ident, censusAllowFile)})
		case d.kind == censusFunc:
			pkgUncalled[d.pkg] = true
			if _, all := listed[key{d.pkg, "*"}]; !one && !all {
				probs = append(probs, censusProblem{kind: censusFunc, msg: fmt.Sprintf("%s: internal/%s.%s has no caller outside tests: delete it, or list it in %s with the reason it stays", d.pos, d.pkg, d.ident, censusAllowFile)})
			}
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
		case d.dead():
		case d.kind == censusFlag:
			p = censusProblem{kind: censusFlag, msg: fmt.Sprintf("it is now passed by %d command line(s)", d.uses)}
		case d.kind == censusField:
			p = censusProblem{kind: censusField, msg: fmt.Sprintf("it is now set outside its package (%d write(s), not all one constant)", d.uses)}
		default:
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
// kind.
func checkCensus(t *testing.T, kind censusKind) {
	items, err := loadCensus()
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readCensusAllow(censusAllowFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range censusProblems(items, allow) {
		if p.kind == kind || p.either {
			t.Error(p.msg)
		}
	}
	n, dead := 0, 0
	for _, d := range items {
		if d.kind == kind && d.uses >= 0 {
			n++
			if d.dead() {
				dead++
			}
		}
	}
	what := [...]string{"exported functions and methods under internal/", "exported fields of input structs under internal/", "flags of cmd/* tools"}[kind]
	t.Logf("%d %s, %d of them dead (each allowlisted or reported above); %d allowlist entries in all", n, what, dead, len(allow))
}

func TestCallerCensus(t *testing.T) { checkCensus(t, censusFunc) }

func TestOptionCensus(t *testing.T) { checkCensus(t, censusField) }

func TestFlagCensus(t *testing.T) { checkCensus(t, censusFlag) }

// TestFlagCensusScanner checks the command-line scanner on small
// fixtures, then checks that the real tree yields the loadbench
// commands CI runs, so a scanner that finds nothing cannot pass the
// flag census vacuously.
func TestFlagCensusScanner(t *testing.T) {
	const yml = `jobs:
  test:
    steps:
      - name: Inline
        run: go run ./cmd/loadbench -smoke -json out.json
      - name: Folded
        run: >
          go run ./cmd/loadbench -seed 13 -clients 16
          -stampede -json ""
      - name: Literal
        run: |
          for x in a b; do echo -n $x; done
          go run ./cmd/benchdiff -old a.json -new b.json > -out.txt
`
	const md = "Fenced:\n\n```\n" +
		"go run ./cmd/loadbench -clients 1000 \\\n" +
		"    -kill-at 150ms --request-retries=2   # -comment\n" +
		"```\n\n" +
		"Inline: `go run ./cmd/conform -seed 1` and then -prose.\n"
	got := append(scanCommands("ci", yamlRunSteps(yml)), scanCommands("md", md)...)
	want := []censusCommand{
		{"ci", "loadbench", []string{"smoke", "json"}},
		{"ci", "loadbench", []string{"seed", "clients", "stampede", "json"}},
		{"ci", "benchdiff", []string{"old", "new"}},
		{"md", "loadbench", []string{"clients", "kill-at", "request-retries"}},
		{"md", "conform", []string{"seed"}},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("scanned\n%v\nwant\n%v", got, want)
	}

	cmds, err := censusCommands()
	if err != nil {
		t.Fatal(err)
	}
	passed := map[string]bool{}
	for _, c := range cmds {
		if c.tool == "loadbench" {
			for _, f := range c.flags {
				passed[f] = true
			}
		}
	}
	for _, f := range []string{"smoke", "stampede", "kill-at"} {
		if !passed[f] {
			t.Errorf("no command line in the tree passes loadbench -%s (%d commands scanned)", f, len(cmds))
		}
	}
}
