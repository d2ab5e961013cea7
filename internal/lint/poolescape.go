package lint

import (
	"go/ast"
	"go/types"
)

// NewPoolEscape returns the pooled-memory ownership analyzer. Pooled
// memory (DESIGN.md §3.7) is one-way: what an owner's slab arenas, free
// lists or aliasing fields hold stays owner-owned, and an owner takes in
// outside data by COPYING it, never by aliasing slices out of a result it
// built. The sync.Pool recycling of game state, dependency-wiring scratch
// and the server's request/body pools has the same shape: a pooled object
// is borrowed, used, and Put back — it must not outlive the borrow by
// escaping into a field, a global, a channel, or the package's exported
// surface.
//
// The analyzer computes a per-function taint: values produced by
// (sync.Pool).Get, by carve/carveLen on a slab reached through an owner
// type (depScratch, prunedScan), by free-list
// pops, or by reading an aliasing field (slice/pointer/map) of an owner, are
// pool-owned. It flags:
//
//   - returning a pool-owned value from an EXPORTED function or method
//     (unexported acquire helpers — newGameState, borrow* — are the blessed
//     idiom and stay inside the package);
//   - assigning a pool-owned value to a package-level variable, sending it
//     on a channel, or storing it into a field/element of a non-owner
//     object (that is how pooled memory would alias into an escaping
//     BatchIndex);
//   - the reverse direction: assigning a foreign slice/pointer into an
//     owner's field without a copy — the only values that may land in
//     owner fields are owner-rooted reslices, carve results, and fresh
//     allocations (calls, literals).
//
// Deliberate exceptions are annotated //lint:poolescape-ok <reason>.
func NewPoolEscape() *Analyzer {
	return &Analyzer{
		Name:     "poolescape",
		Doc:      "enforces the one-way ownership rule for slab arenas, free lists and sync.Pool objects",
		Suppress: "poolescape-ok",
		AppliesTo: prefixFilter(
			"dasc/internal/core",
			"dasc/internal/server",
		),
		Run: runPoolEscape,
	}
}

// poolOwnerTypes are the types whose slabs, free lists and aliasing fields
// are pool-owned. New pool-owning types must be registered here.
// depScratch is the dependency-wiring build's pooled scratch: its ID-indexed
// slices must never alias into the wiring it builds. prunedScan is a build's
// view of the candidate source (skill buckets and grid): what it holds must
// never alias into the index either.
var poolOwnerTypes = map[string]bool{"depScratch": true, "prunedScan": true}

func runPoolEscape(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPoolEscapes(pass, fd)
		}
	}
	return nil
}

// ownerRooted reports whether the expression is reached through a value of
// a pool-owner type (sc.free, ps.buckets, sc.tag[i], a local *depScratch).
func ownerRooted(pass *Pass, e ast.Expr) bool {
	root := rootIdent(e)
	if root == nil {
		return false
	}
	obj := pass.TypesInfo.Uses[root]
	if obj == nil {
		obj = pass.TypesInfo.Defs[root]
	}
	if obj == nil || obj.Type() == nil {
		return false
	}
	return poolOwnerTypes[typeName(obj.Type())]
}

// poolSource reports whether e directly produces pool-owned memory and a
// short description of the source.
func poolSource(pass *Pass, e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		fn := calleeFunc(pass.TypesInfo, e)
		if fn == nil {
			return "", false
		}
		if fn.Name() == "Get" && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
			return "sync.Pool memory", true
		}
		if fn.Name() == "carve" || fn.Name() == "carveLen" {
			if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && ownerRooted(pass, sel.X) {
				return "slab-arena memory", true
			}
		}
	case *ast.IndexExpr:
		if sel, ok := ast.Unparen(e.X).(*ast.SelectorExpr); ok && sel.Sel.Name == "free" && ownerRooted(pass, sel.X) {
			return "free-list memory", true
		}
	case *ast.SelectorExpr:
		// Reading an aliasing field out of an owner (sc.tag, ps.buckets).
		if ownerRooted(pass, e.X) && isSliceOrPointer(pass.TypesInfo, e) {
			return "pool-owned memory", true
		}
	case *ast.UnaryExpr:
		return poolSource(pass, e.X)
	case *ast.TypeAssertExpr:
		return poolSource(pass, e.X)
	case *ast.SliceExpr:
		return poolSource(pass, e.X)
	}
	return "", false
}

// checkPoolEscapes runs the per-function taint and escape checks.
func checkPoolEscapes(pass *Pass, fd *ast.FuncDecl) {
	exported := fd.Name.IsExported()
	tainted := map[types.Object]string{} // local object → source description

	// exprPoolTaint: can the VALUE of e alias pool-owned memory? The walk
	// follows aliasing structure, not the whole subtree: scalar-typed
	// subexpressions are pruned (an element read copies the element), and
	// calls are opaque (a method taking pooled memory does not make its
	// result pooled memory) except for append, which aliases its first
	// argument.
	var exprPoolTaint func(e ast.Expr) (string, bool)
	exprPoolTaint = func(e ast.Expr) (string, bool) {
		if e == nil {
			return "", false
		}
		if s, ok := poolSource(pass, e); ok {
			return s, true
		}
		if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Type != nil {
			if _, basic := tv.Type.Underlying().(*types.Basic); basic {
				return "", false
			}
		}
		switch e := e.(type) {
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[e]; obj != nil {
				if s, ok := tainted[obj]; ok {
					return s, true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					for _, arg := range e.Args {
						if s, ok := exprPoolTaint(arg); ok {
							return s, true
						}
					}
				}
			}
		case *ast.SelectorExpr:
			// A field of a pooled object is pooled.
			return exprPoolTaint(e.X)
		case *ast.ParenExpr:
			return exprPoolTaint(e.X)
		case *ast.IndexExpr:
			return exprPoolTaint(e.X)
		case *ast.SliceExpr:
			return exprPoolTaint(e.X)
		case *ast.StarExpr:
			return exprPoolTaint(e.X)
		case *ast.UnaryExpr:
			return exprPoolTaint(e.X)
		case *ast.TypeAssertExpr:
			return exprPoolTaint(e.X)
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if s, ok := exprPoolTaint(el); ok {
					return s, true
				}
			}
		}
		return "", false
	}

	// Two passes so taint flows through loop-carried locals.
	for i := 0; i < 2; i++ {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for k, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				// Gate on the object's type, not info.Types: the LHS ident
				// of a short variable declaration is recorded only in Defs.
				if obj == nil || obj.Type() == nil || !isAliasingType(obj.Type()) {
					continue
				}
				if src, ok := exprPoolTaint(as.Rhs[k]); ok {
					tainted[obj] = src
				}
			}
			return true
		})
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			if !exported {
				return true
			}
			for _, res := range n.Results {
				if !isSliceOrPointer(pass.TypesInfo, res) {
					continue
				}
				if src, ok := exprPoolTaint(res); ok {
					pass.Reportf(n.Pos(), "%s returned from exported %s; pooled memory must not escape the package's exported surface — copy it", src, fd.Name.Name)
				}
			}
		case *ast.SendStmt:
			if src, ok := exprPoolTaint(n.Value); ok && isSliceOrPointer(pass.TypesInfo, n.Value) {
				pass.Reportf(n.Pos(), "%s sent on a channel; the receiver would alias recycled memory — copy it", src)
			}
		case *ast.AssignStmt:
			checkPoolStores(pass, n, exprPoolTaint)
		}
		return true
	})
}

// checkPoolStores classifies each assignment's sink and flags ownership
// violations in both directions.
func checkPoolStores(pass *Pass, as *ast.AssignStmt, exprPoolTaint func(ast.Expr) (string, bool)) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for k, lhs := range as.Lhs {
		rhs := as.Rhs[k]
		if !isSliceOrPointer(pass.TypesInfo, lhs) {
			continue
		}
		switch sink := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			// Package-level variable?
			obj := pass.TypesInfo.Uses[sink]
			if obj == nil {
				obj = pass.TypesInfo.Defs[sink]
			}
			if v, ok := obj.(*types.Var); ok && v.Parent() == pass.Pkg.Scope() {
				if src, ok := exprPoolTaint(rhs); ok {
					pass.Reportf(as.Pos(), "%s stored in package-level variable %s; pooled memory must stay with its owner — copy it", src, sink.Name)
				}
			}
		case *ast.SelectorExpr, *ast.IndexExpr:
			if ownerRooted(pass, sink) {
				// Copy-in direction: owner fields take only owner-rooted or
				// fresh memory (copy-always).
				if _, rhsPooled := exprPoolTaint(rhs); rhsPooled || freshOrOwnerExpr(pass, rhs) {
					continue
				}
				pass.Reportf(as.Pos(), "foreign slice/pointer stored into pool-owned field without a copy; the owner must carve or copy (copy-always)")
			} else if src, ok := exprPoolTaint(rhs); ok {
				pass.Reportf(as.Pos(), "%s stored into non-owner structure; the store aliases recycled memory past its owner — copy it", src)
			}
		}
	}
}

// freshOrOwnerExpr reports whether rhs is safe to store into an owner
// field: freshly allocated (a call such as make/append/new, a composite
// literal, nil) or already owner-rooted (a reslice of the field itself).
func freshOrOwnerExpr(pass *Pass, rhs ast.Expr) bool {
	switch e := ast.Unparen(rhs).(type) {
	case *ast.CallExpr, *ast.CompositeLit, *ast.BasicLit:
		return true
	case *ast.UnaryExpr:
		return freshOrOwnerExpr(pass, e.X)
	case *ast.Ident:
		if e.Name == "nil" {
			return true
		}
	case *ast.SliceExpr:
		return ownerRooted(pass, e.X)
	}
	return ownerRooted(pass, rhs)
}
