package dcc

import (
	"errors"
	"fmt"
	"strings"
)

// Options are the compiler's optimization knobs — the §6 set.
type Options struct {
	// Debug inserts per-statement debug-kernel hooks (Dynamic C
	// compiles with debugging by default; "disabling debugging" was
	// one of the optimizations tried).
	Debug bool
	// Unroll fully unrolls for-loops with constant trip counts.
	Unroll bool
	// RootData places arrays in root memory instead of the
	// bank-switched xmem window ("moving data to root memory").
	RootData bool
	// Peephole runs the peephole pass ("enabling compiler optimization").
	Peephole bool
}

// XPCPort is the I/O port the generated code (and the board) use to
// set the XPC bank register.
const XPCPort = 0x12

// ErrSemantic wraps type/semantic errors.
var ErrSemantic = errors.New("dcc: semantic error")

type codegen struct {
	opt     Options
	prog    *program
	lines   []string
	labelN  int
	curFn   *funcDecl
	funcs   map[string]*funcDecl
	globals map[string]*varDecl
	brk     []string
	cont    []string
}

func (g *codegen) emit(format string, args ...any) {
	g.lines = append(g.lines, fmt.Sprintf(format, args...))
}

func (g *codegen) label(prefix string) string {
	g.labelN++
	return fmt.Sprintf("%s_%d", prefix, g.labelN)
}

func (g *codegen) errf(line int, format string, args ...any) error {
	return fmt.Errorf("%w: line %d: "+format, append([]any{ErrSemantic, line}, args...)...)
}

// generate produces the full assembly text.
func (g *codegen) generate() (string, error) {
	g.funcs = map[string]*funcDecl{}
	g.globals = map[string]*varDecl{}
	for _, fn := range g.prog.funcs {
		if g.funcs[fn.name] != nil {
			return "", g.errf(fn.line, "duplicate function %q", fn.name)
		}
		g.funcs[fn.name] = fn
	}
	for _, d := range g.prog.globals {
		if g.globals[d.name] != nil {
			return "", g.errf(d.line, "duplicate global %q", d.name)
		}
		d.label = "_g_" + d.name
		g.globals[d.name] = d
	}
	if g.funcs["main"] == nil {
		return "", fmt.Errorf("%w: no main function", ErrSemantic)
	}
	if err := g.checkRecursion(); err != nil {
		return "", err
	}
	// Name locals and params.
	for _, fn := range g.prog.funcs {
		for i, p := range fn.params {
			p.label = fmt.Sprintf("_p_%s_%d", fn.name, i)
		}
		seen := map[string]bool{}
		for _, l := range fn.locals {
			if seen[l.name] {
				return "", g.errf(l.line, "duplicate local %q in %s", l.name, fn.name)
			}
			seen[l.name] = true
			l.label = fmt.Sprintf("_l_%s_%s", fn.name, l.name)
		}
	}

	g.emit("; generated by dcc (debug=%v unroll=%v rootdata=%v peephole=%v)",
		g.opt.Debug, g.opt.Unroll, g.opt.RootData, g.opt.Peephole)
	g.emit("        org 0")
	g.emit("        ld sp, 0xDFF0")
	g.emit("        call _main")
	g.emit("        halt")

	for _, fn := range g.prog.funcs {
		if err := g.genFunc(fn); err != nil {
			return "", err
		}
	}

	if g.opt.Peephole {
		g.lines = peephole(g.lines)
	}

	// Runtime support routines, then the code-size marker, then data.
	g.lines = append(g.lines, strings.Split(runtimeAsm, "\n")...)
	g.emit("code_end:")
	g.emitData()
	return strings.Join(g.lines, "\n") + "\n", nil
}

// checkRecursion rejects call cycles: with static locals (the Dynamic
// C default) recursion silently corrupts state, so it is an error.
func (g *codegen) checkRecursion() error {
	calls := map[string][]string{}
	var walkE func(fn string, e expr)
	var walkS func(fn string, s stmt)
	walkE = func(fn string, e expr) {
		switch v := e.(type) {
		case *callExpr:
			calls[fn] = append(calls[fn], v.name)
			for _, a := range v.args {
				walkE(fn, a)
			}
		case *unaryExpr:
			walkE(fn, v.e)
		case *binExpr:
			walkE(fn, v.l)
			walkE(fn, v.r)
		case *assignExpr:
			walkE(fn, v.lhs)
			walkE(fn, v.rhs)
		case *incDecExpr:
			walkE(fn, v.target)
		case *ternaryExpr:
			walkE(fn, v.cond)
			walkE(fn, v.then)
			walkE(fn, v.els)
		case *indexExpr:
			walkE(fn, v.idx)
		}
	}
	walkS = func(fn string, s stmt) {
		switch v := s.(type) {
		case *blockStmt:
			for _, c := range v.stmts {
				walkS(fn, c)
			}
		case *exprStmt:
			walkE(fn, v.e)
		case *ifStmt:
			walkE(fn, v.cond)
			walkS(fn, v.then)
			if v.els != nil {
				walkS(fn, v.els)
			}
		case *whileStmt:
			walkE(fn, v.cond)
			walkS(fn, v.body)
		case *doWhileStmt:
			walkS(fn, v.body)
			walkE(fn, v.cond)
		case *forStmt:
			if v.init != nil {
				walkE(fn, v.init)
			}
			if v.cond != nil {
				walkE(fn, v.cond)
			}
			if v.post != nil {
				walkE(fn, v.post)
			}
			walkS(fn, v.body)
		case *returnStmt:
			if v.e != nil {
				walkE(fn, v.e)
			}
		}
	}
	for _, fn := range g.prog.funcs {
		walkS(fn.name, fn.body)
	}
	// DFS cycle detection.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(n string) error
	visit = func(n string) error {
		color[n] = gray
		for _, m := range calls[n] {
			switch color[m] {
			case gray:
				return fmt.Errorf("%w: recursive call involving %q (static locals make recursion unsafe)", ErrSemantic, m)
			case white:
				if g.funcs[m] != nil {
					if err := visit(m); err != nil {
						return err
					}
				}
			}
		}
		color[n] = black
		return nil
	}
	for name := range g.funcs {
		if color[name] == white {
			if err := visit(name); err != nil {
				return err
			}
		}
	}
	return nil
}

// resolve finds the declaration for a name in the current scope.
func (g *codegen) resolve(name string, line int) (*varDecl, error) {
	if g.curFn != nil {
		for _, l := range g.curFn.locals {
			if l.name == name {
				return l, nil
			}
		}
		for _, p := range g.curFn.params {
			if p.name == name {
				return p, nil
			}
		}
	}
	if d := g.globals[name]; d != nil {
		return d, nil
	}
	return nil, g.errf(line, "undefined variable %q", name)
}

// inXmem reports whether a declaration lands in the xmem window.
// Scalars always stay in root (they are small); arrays follow the
// -rootdata knob unless explicitly placed.
func (g *codegen) inXmem(d *varDecl) bool {
	if d.arrayLen == 0 {
		return false
	}
	if d.explicitPlacement {
		return d.xmem
	}
	return !g.opt.RootData
}

func (g *codegen) genFunc(fn *funcDecl) error {
	g.curFn = fn
	defer func() { g.curFn = nil }()
	g.emit("")
	g.emit("; --- %s %s(%d params)", fn.ret, fn.name, len(fn.params))
	g.emit("_%s:", fn.name)
	if err := g.genStmt(fn.body); err != nil {
		return err
	}
	g.emit("_%s_exit:", fn.name)
	g.emit("        ret")
	return nil
}

func (g *codegen) dbgHook() {
	if g.opt.Debug {
		g.emit("        call __dbg")
	}
}

func (g *codegen) genStmt(s stmt) error {
	switch v := s.(type) {
	case *blockStmt:
		for _, c := range v.stmts {
			if err := g.genStmt(c); err != nil {
				return err
			}
		}
	case *declStmt:
		// Static storage: initialization lives in the data image
		// ("variables initialized in a declaration are stored in
		// flash"), so nothing executes here.
		g.dbgHook()
	case *exprStmt:
		if err := g.genExpr(v.e); err != nil {
			return err
		}
		g.dbgHook()
	case *returnStmt:
		if v.e != nil {
			if err := g.genExpr(v.e); err != nil {
				return err
			}
		}
		g.dbgHook()
		g.emit("        jp _%s_exit", g.curFn.name)
	case *ifStmt:
		els := g.label("if_else")
		end := g.label("if_end")
		if err := g.genCondJump(v.cond, els); err != nil {
			return err
		}
		if err := g.genStmt(v.then); err != nil {
			return err
		}
		if v.els != nil {
			g.emit("        jp %s", end)
		}
		g.emit("%s:", els)
		if v.els != nil {
			if err := g.genStmt(v.els); err != nil {
				return err
			}
			g.emit("%s:", end)
		}
	case *doWhileStmt:
		top := g.label("dw_top")
		condL := g.label("dw_cond")
		end := g.label("dw_end")
		g.emit("%s:", top)
		g.brk = append(g.brk, end)
		g.cont = append(g.cont, condL)
		if err := g.genStmt(v.body); err != nil {
			return err
		}
		g.brk = g.brk[:len(g.brk)-1]
		g.cont = g.cont[:len(g.cont)-1]
		g.emit("%s:", condL)
		if err := g.genExpr(v.cond); err != nil {
			return err
		}
		g.emit("        ld a, h")
		g.emit("        or l")
		g.emit("        jp nz, %s", top)
		g.emit("%s:", end)
	case *whileStmt:
		top := g.label("wh_top")
		end := g.label("wh_end")
		g.emit("%s:", top)
		if err := g.genCondJump(v.cond, end); err != nil {
			return err
		}
		g.brk = append(g.brk, end)
		g.cont = append(g.cont, top)
		if err := g.genStmt(v.body); err != nil {
			return err
		}
		g.brk = g.brk[:len(g.brk)-1]
		g.cont = g.cont[:len(g.cont)-1]
		g.emit("        jp %s", top)
		g.emit("%s:", end)
	case *forStmt:
		if g.opt.Unroll {
			if done, err := g.tryUnroll(v); done || err != nil {
				return err
			}
		}
		return g.genFor(v)
	case *breakStmt:
		if len(g.brk) == 0 {
			return fmt.Errorf("%w: break outside loop", ErrSemantic)
		}
		g.emit("        jp %s", g.brk[len(g.brk)-1])
	case *continueStmt:
		if len(g.cont) == 0 {
			return fmt.Errorf("%w: continue outside loop", ErrSemantic)
		}
		g.emit("        jp %s", g.cont[len(g.cont)-1])
	}
	return nil
}

func (g *codegen) genFor(v *forStmt) error {
	top := g.label("for_top")
	postL := g.label("for_post")
	end := g.label("for_end")
	if v.init != nil {
		if err := g.genExpr(v.init); err != nil {
			return err
		}
		g.dbgHook()
	}
	g.emit("%s:", top)
	if v.cond != nil {
		if err := g.genCondJump(v.cond, end); err != nil {
			return err
		}
	}
	g.brk = append(g.brk, end)
	g.cont = append(g.cont, postL)
	if err := g.genStmt(v.body); err != nil {
		return err
	}
	g.brk = g.brk[:len(g.brk)-1]
	g.cont = g.cont[:len(g.cont)-1]
	g.emit("%s:", postL)
	if v.post != nil {
		if err := g.genExpr(v.post); err != nil {
			return err
		}
	}
	g.emit("        jp %s", top)
	g.emit("%s:", end)
	return nil
}

// tryUnroll recognizes for (i = C0; i < C1; i = i + C2) with a
// constant trip count and emits the body repeatedly with explicit
// counter assignments. Reports whether it handled the loop.
func (g *codegen) tryUnroll(v *forStmt) (bool, error) {
	const maxTrips = 32
	ivar, c0, ok := matchConstAssign(v.init)
	if !ok {
		return false, nil
	}
	c1, ok := matchUpperBound(v.cond, ivar)
	if !ok {
		return false, nil
	}
	c2, ok := matchIncrement(v.post, ivar)
	if !ok || c2 <= 0 {
		return false, nil
	}
	if (c1-c0)%c2 != 0 && c1 > c0 {
		// non-exact trip counts still terminate; compute trips
	}
	trips := 0
	for k := c0; k < c1; k += c2 {
		trips++
		if trips > maxTrips {
			return false, nil
		}
	}
	if hasLoopEscape(v.body) || assignsTo(v.body, ivar) {
		return false, nil
	}
	for k := c0; k < c1; k += c2 {
		// i = k; body
		if err := g.genExpr(&assignExpr{op: "=", lhs: &varExpr{name: ivar}, rhs: &numExpr{v: k}}); err != nil {
			return true, err
		}
		if err := g.genStmt(v.body); err != nil {
			return true, err
		}
	}
	// Loop variable's final value, as the rolled loop would leave it.
	if err := g.genExpr(&assignExpr{op: "=", lhs: &varExpr{name: ivar}, rhs: &numExpr{v: c0 + trips*c2}}); err != nil {
		return true, err
	}
	return true, nil
}

func matchConstAssign(e expr) (string, int, bool) {
	a, ok := e.(*assignExpr)
	if !ok || a.op != "=" {
		return "", 0, false
	}
	v, ok := a.lhs.(*varExpr)
	if !ok {
		return "", 0, false
	}
	n, ok := a.rhs.(*numExpr)
	if !ok {
		return "", 0, false
	}
	return v.name, n.v, true
}

func matchUpperBound(e expr, ivar string) (int, bool) {
	b, ok := e.(*binExpr)
	if !ok || b.op != "<" {
		return 0, false
	}
	v, ok := b.l.(*varExpr)
	if !ok || v.name != ivar {
		return 0, false
	}
	n, ok := b.r.(*numExpr)
	if !ok {
		return 0, false
	}
	return n.v, true
}

func matchIncrement(e expr, ivar string) (int, bool) {
	// i++ / ++i count as increment-by-one.
	if inc, ok := e.(*incDecExpr); ok && inc.op == "++" {
		if v, ok := inc.target.(*varExpr); ok && v.name == ivar {
			return 1, true
		}
		return 0, false
	}
	a, ok := e.(*assignExpr)
	if !ok {
		return 0, false
	}
	v, ok := a.lhs.(*varExpr)
	if !ok || v.name != ivar {
		return 0, false
	}
	if a.op == "+=" {
		n, ok := a.rhs.(*numExpr)
		if !ok {
			return 0, false
		}
		return n.v, true
	}
	if a.op != "=" {
		return 0, false
	}
	b, ok := a.rhs.(*binExpr)
	if !ok || b.op != "+" {
		return 0, false
	}
	lv, ok := b.l.(*varExpr)
	if !ok || lv.name != ivar {
		return 0, false
	}
	n, ok := b.r.(*numExpr)
	if !ok {
		return 0, false
	}
	return n.v, true
}

func hasLoopEscape(s stmt) bool {
	switch v := s.(type) {
	case *breakStmt, *continueStmt:
		return true
	case *blockStmt:
		for _, c := range v.stmts {
			if hasLoopEscape(c) {
				return true
			}
		}
	case *ifStmt:
		if hasLoopEscape(v.then) {
			return true
		}
		if v.els != nil {
			return hasLoopEscape(v.els)
		}
	// Nested loops own their break/continue.
	case *whileStmt, *forStmt, *doWhileStmt:
		return false
	}
	return false
}

func assignsTo(s stmt, name string) bool {
	found := false
	var walkE func(e expr)
	var walkS func(s stmt)
	walkE = func(e expr) {
		switch v := e.(type) {
		case *incDecExpr:
			if lv, ok := v.target.(*varExpr); ok && lv.name == name {
				found = true
			}
			walkE(v.target)
		case *assignExpr:
			if lv, ok := v.lhs.(*varExpr); ok && lv.name == name {
				found = true
			}
			walkE(v.rhs)
		case *ternaryExpr:
			walkE(v.cond)
			walkE(v.then)
			walkE(v.els)
		case *binExpr:
			walkE(v.l)
			walkE(v.r)
		case *unaryExpr:
			walkE(v.e)
		case *callExpr:
			for _, a := range v.args {
				walkE(a)
			}
		case *indexExpr:
			walkE(v.idx)
		}
	}
	walkS = func(s stmt) {
		switch v := s.(type) {
		case *blockStmt:
			for _, c := range v.stmts {
				walkS(c)
			}
		case *exprStmt:
			walkE(v.e)
		case *ifStmt:
			walkE(v.cond)
			walkS(v.then)
			if v.els != nil {
				walkS(v.els)
			}
		case *whileStmt:
			walkE(v.cond)
			walkS(v.body)
		case *doWhileStmt:
			walkS(v.body)
			walkE(v.cond)
		case *forStmt:
			if v.init != nil {
				walkE(v.init)
			}
			if v.cond != nil {
				walkE(v.cond)
			}
			if v.post != nil {
				walkE(v.post)
			}
			walkS(v.body)
		case *returnStmt:
			if v.e != nil {
				walkE(v.e)
			}
		}
	}
	walkS(s)
	return found
}

// genCondJump evaluates cond and jumps to target when it is false.
// Comparisons against constants use an inline signed compare — the
// fast path even Small-C-class compilers emit — instead of the generic
// runtime-call-and-test sequence.
func (g *codegen) genCondJump(cond expr, target string) error {
	if b, ok := cond.(*binExpr); ok {
		if n, ok := b.r.(*numExpr); ok {
			if done, err := g.condConstFast(b.op, b.l, n.v, target); done || err != nil {
				return err
			}
		}
	}
	if err := g.genExpr(cond); err != nil {
		return err
	}
	g.emit("        ld a, h")
	g.emit("        or l")
	g.emit("        jp z, %s", target)
	return nil
}

// condConstFast emits an inline signed comparison of left against a
// constant, jumping to target when the comparison is FALSE. Signed
// "less" after SBC is S≠V; the two-branch sequence below tests S==V.
func (g *codegen) condConstFast(op string, left expr, n int, target string) (bool, error) {
	jumpWhenLess := false // jump to target when left < bound
	bound := n
	switch op {
	case "<": // false when left >= n: jump when NOT less
	case ">=":
		jumpWhenLess = true // false when left < n
	case "<=":
		if n >= 32767 {
			return false, nil
		}
		bound = n + 1 // left <= n  ⇔  left < n+1
	case ">":
		if n >= 32767 {
			return false, nil
		}
		bound = n + 1
		jumpWhenLess = true // false when left < n+1
	case "==", "!=":
		if err := g.genExpr(left); err != nil {
			return true, err
		}
		g.emit("        ld de, %d", uint16(n))
		g.emit("        or a")
		g.emit("        sbc hl, de")
		if op == "==" {
			g.emit("        jp nz, %s", target)
		} else {
			g.emit("        jp z, %s", target)
		}
		return true, nil
	default:
		return false, nil
	}
	if err := g.genExpr(left); err != nil {
		return true, err
	}
	ovf := g.label("cc_ovf")
	done := g.label("cc_done")
	g.emit("        ld de, %d", uint16(bound))
	g.emit("        or a")
	g.emit("        sbc hl, de")
	if jumpWhenLess {
		// less = S≠V: no-overflow & minus, or overflow & plus.
		g.emit("        jp pe, %s", ovf)
		g.emit("        jp m, %s", target)
		g.emit("        jp %s", done)
		g.emit("%s:", ovf)
		g.emit("        jp p, %s", target)
	} else {
		// not-less = S==V: no-overflow & plus, or overflow & minus.
		g.emit("        jp pe, %s", ovf)
		g.emit("        jp p, %s", target)
		g.emit("        jp %s", done)
		g.emit("%s:", ovf)
		g.emit("        jp m, %s", target)
	}
	g.emit("%s:", done)
	return true, nil
}
