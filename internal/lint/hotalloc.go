package lint

// hotalloc: per-iteration heap-allocation detection for `//efes:hot`
// functions — the fused profiling kernels, the vectorized CSG
// evaluators, and the columnar substrate's incremental maintenance.
// Benchmarks catch allocation regressions after the fact; this rule
// flags the allocating construct at review time, with the loop nest and
// allocation kind in the diagnostic.
//
// Inside any loop of a hot function the following are flagged:
//
//   - make of a slice, map, or channel in the loop body;
//   - append to a slice without provable capacity — provable means every
//     definition of the target (through its alias group, so swapped
//     double-buffers count) is a make with an explicit capacity outside
//     the loop or a self-append (dataflow.go's def-use chains);
//   - composite literals that allocate: &T{…} (escaping pointer) and
//     slice/map literals; a plain struct value literal stays on the
//     stack and passes;
//   - interface boxing at call sites: a concrete value whose
//     representation does not fit the interface word (strings, slices,
//     structs, floats, non-constant ints) passed to an interface{}/any
//     parameter;
//   - closures capturing outer variables (the closure object is heap
//     allocated per iteration);
//   - string↔[]byte conversions (each copies the bytes) — except the
//     key of a map-index read, m[string(b)] (plain or comma-ok), which
//     the compiler looks up without copying. Assigning through that
//     index (m[string(b)] = v, m[string(b)] += v, m[string(b)]++) stores
//     the key and stays flagged.
//
// The analysis is syntactic and intraprocedural: an allocation hidden
// behind a callee (x.Format, fmt helpers called outside the loop body's
// text) is the benchmark's job. False positives — an amortized append
// that grows to an unknown distinct count, a cold error path — carry a
// reasoned //lint:ignore hotalloc.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

var analyzerHotalloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "no per-iteration heap allocations in the loops of //efes:hot functions",
	Run:  runHotalloc,
}

func runHotalloc(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasHotDirective(fd) {
				continue
			}
			var node *FuncNode
			if obj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
				node = pass.Graph.NodeByObj(obj)
			}
			if node == nil {
				continue
			}
			h := &hotWalker{
				pass:     pass,
				df:       analyzeFunc(pass.Pkg, node),
				flagged:  make(map[*ast.CompositeLit]bool),
				stores:   make(map[*ast.IndexExpr]bool),
				readKeys: make(map[*ast.CallExpr]bool),
			}
			h.walk(fd.Body)
		}
	}
}

// hasHotDirective reports a `//efes:hot` line in the function's doc
// comment.
func hasHotDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		t := strings.TrimSpace(c.Text)
		if t == "//efes:hot" || strings.HasPrefix(t, "//efes:hot ") {
			return true
		}
	}
	return false
}

// hotWalker tracks the loop nest while scanning a hot function's body.
type hotWalker struct {
	pass    *Pass
	df      *funcDataflow
	loops   []ast.Node
	flagged map[*ast.CompositeLit]bool // already reported under a &
	// stores marks index expressions that are assigned through; readKeys
	// marks string(b) conversions that are the key of a map-index read.
	stores   map[*ast.IndexExpr]bool
	readKeys map[*ast.CallExpr]bool
}

// flag reports one per-iteration allocation with the innermost loop and
// nest depth.
func (h *hotWalker) flag(pos token.Pos, desc string) {
	loop := h.loops[len(h.loops)-1]
	p := h.pass.Fset.Position(loop.Pos())
	h.pass.Reportf(pos, "hot path: %s allocates on every iteration of the loop at %s:%d (depth %d); hoist it out of the loop or preallocate",
		desc, filepath.Base(p.Filename), p.Line, len(h.loops))
}

func (h *hotWalker) inLoop() bool { return len(h.loops) > 0 }

func (h *hotWalker) walk(node ast.Node) {
	if node == nil {
		return
	}
	switch x := node.(type) {
	case *ast.ForStmt:
		h.walk(x.Init)
		h.walk(x.Cond)
		h.walk(x.Post)
		h.loops = append(h.loops, x)
		h.walk(x.Body)
		h.loops = h.loops[:len(h.loops)-1]
		return
	case *ast.RangeStmt:
		h.walk(x.X)
		h.loops = append(h.loops, x)
		h.walk(x.Body)
		h.loops = h.loops[:len(h.loops)-1]
		return
	case *ast.FuncLit:
		if h.inLoop() {
			if name, captures := closureCapture(h.pass.Pkg.Info, x); captures {
				h.flag(x.Pos(), fmt.Sprintf("closure capturing %q", name))
			}
		}
		h.walk(x.Body) // a loop inside the literal is still hot code
		return
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if cl, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
				if h.inLoop() {
					h.flag(x.Pos(), fmt.Sprintf("composite literal %s", compactExpr(x)))
				}
				h.flagged[cl] = true
			}
		}
	case *ast.CompositeLit:
		if h.inLoop() && !h.flagged[x] {
			switch h.litType(x).(type) {
			case *types.Slice, *types.Map:
				h.flag(x.Pos(), fmt.Sprintf("composite literal %s", compactExpr(x)))
			}
		}
	case *ast.AssignStmt:
		for _, lhs := range x.Lhs {
			if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
				h.stores[ix] = true
			}
		}
	case *ast.IncDecStmt:
		if ix, ok := ast.Unparen(x.X).(*ast.IndexExpr); ok {
			h.stores[ix] = true
		}
	case *ast.IndexExpr:
		if !h.stores[x] && h.isStringKeyedMap(x.X) {
			if call, ok := ast.Unparen(x.Index).(*ast.CallExpr); ok && h.isBytesToString(call) {
				h.readKeys[call] = true
			}
		}
	case *ast.CallExpr:
		if h.inLoop() && !h.readKeys[x] {
			h.checkCall(x)
		}
	}
	for _, child := range childNodes(node) {
		h.walk(child)
	}
}

// isStringKeyedMap reports whether e is a map whose key type is a
// string type. Only then does the compiler look m[string(b)] up without
// copying the bytes: an interface-keyed map boxes a copy of the key.
func (h *hotWalker) isStringKeyedMap(e ast.Expr) bool {
	tv, ok := h.pass.Pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	m, isMap := tv.Type.Underlying().(*types.Map)
	return isMap && isStringType(m.Key())
}

// isBytesToString reports whether call is a string([]byte) conversion.
func (h *hotWalker) isBytesToString(call *ast.CallExpr) bool {
	info := h.pass.Pkg.Info
	fun, ok := info.Types[call.Fun]
	if !ok || !fun.IsType() || !isStringType(fun.Type) || len(call.Args) != 1 {
		return false
	}
	arg, ok := info.Types[call.Args[0]]
	return ok && isByteSlice(arg.Type)
}

// litType resolves a composite literal's underlying type.
func (h *hotWalker) litType(cl *ast.CompositeLit) types.Type {
	if tv, ok := h.pass.Pkg.Info.Types[cl]; ok && tv.Type != nil {
		return tv.Type.Underlying()
	}
	return nil
}

// checkCall classifies one call inside a loop: builtin make/append, a
// type conversion, or a regular call whose arguments may box.
func (h *hotWalker) checkCall(call *ast.CallExpr) {
	info := h.pass.Pkg.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch info.Uses[id] {
		case types.Universe.Lookup("make"):
			h.flag(call.Pos(), compactExpr(call))
			return
		case types.Universe.Lookup("append"):
			if len(call.Args) > 0 && !h.df.provableCap(call.Args[0], h.loops[0]) {
				h.flag(call.Pos(), fmt.Sprintf("append to %s without provable capacity", compactExpr(call.Args[0])))
			}
			return
		case types.Universe.Lookup("new"):
			h.flag(call.Pos(), compactExpr(call))
			return
		}
	}
	tvFun, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	if tvFun.IsType() {
		h.checkConversion(call, tvFun.Type)
		return
	}
	sig, ok := tvFun.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	h.checkBoxing(call, sig)
}

// checkConversion flags string↔[]byte conversions (byte copies) and
// conversions of a concrete value to an interface type (boxing).
func (h *hotWalker) checkConversion(call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	tv, ok := h.pass.Pkg.Info.Types[arg]
	if !ok || tv.Value != nil { // constant conversions are compile-time
		return
	}
	src := tv.Type
	if isStringType(target) && isByteSlice(src) || isByteSlice(target) && isStringType(src) {
		h.flag(call.Pos(), fmt.Sprintf("conversion %s (byte copy)", compactExpr(call)))
		return
	}
	if types.IsInterface(target) && !types.IsInterface(src) && boxingAllocates(src) {
		h.flag(call.Pos(), fmt.Sprintf("boxing %s into interface %s", compactExpr(arg), target.String()))
	}
}

// checkBoxing flags concrete values flowing into interface parameters.
func (h *hotWalker) checkBoxing(call *ast.CallExpr, sig *types.Signature) {
	if call.Ellipsis.IsValid() {
		return // a spread slice is passed as-is
	}
	info := h.pass.Pkg.Info
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case i < np-1 || (i < np && !sig.Variadic()):
			param = sig.Params().At(i).Type()
		case sig.Variadic():
			if sl, ok := sig.Params().At(np - 1).Type().(*types.Slice); ok {
				param = sl.Elem()
			}
		}
		if param == nil || !types.IsInterface(param) {
			continue
		}
		tv, ok := info.Types[arg]
		if !ok || tv.Value != nil || tv.Type == nil {
			continue // constants box to static data
		}
		if types.IsInterface(tv.Type) || !boxingAllocates(tv.Type) {
			continue
		}
		h.flag(arg.Pos(), fmt.Sprintf("boxing %s into the interface parameter of %s", compactExpr(arg), compactExpr(call.Fun)))
	}
}

// boxingAllocates reports whether converting a value of this concrete
// type to an interface heap-allocates: anything whose representation
// does not fit the interface data word. Pointer-shaped types (pointers,
// channels, maps, funcs) and one-byte scalars (the runtime's static
// byte table) do not allocate.
func boxingAllocates(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		switch u.Kind() {
		case types.Bool, types.Int8, types.Uint8, types.UnsafePointer, types.UntypedNil:
			return false
		}
	}
	return true
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// closureCapture reports the first outer local a function literal
// captures (source order), if any.
func closureCapture(info *types.Info, lit *ast.FuncLit) (string, bool) {
	var name string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || !isLocalVar(v) {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			name = id.Name
			return false
		}
		return true
	})
	return name, name != ""
}

// compactExpr renders an expression for a diagnostic, eliding long
// bodies.
func compactExpr(e ast.Expr) string {
	s := types.ExprString(e)
	if len(s) > 48 {
		s = s[:45] + "…"
	}
	return s
}
