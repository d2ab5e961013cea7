package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NewEpsFloat returns the epsilon-comparison analyzer. Feasibility
// predicates compare accumulated float64 time and distance values — the
// deadline constraint w_t − max(s_w − s_t, 0) − ct_w ≥ 0 is evaluated as
// depart + travel ≤ deadline, and the simulator accumulates both sides leg
// by leg — so a raw ==/!=/<=/>= between two computed time/distance values
// drifts by ulps exactly on the boundaries the paper's examples sit on.
// Every such comparison must go through the model epsilon constants
// (timeEps, DistEps) or the blessed helper (model.FeasibleFrom) that
// embeds them.
//
// The analyzer taints expressions derived from the model's time/distance
// surface (Task.Start/Wait/Deadline/Expiry, Worker fields and TravelTime,
// BatchWorker.ReadyAt/DistBudget, DistanceFunc calls)
// through local assignments, and flags ==, !=, <= and >= where both
// operands are non-constant floats and at least one is tainted — unless an
// operand mentions an *Eps constant, which is the blessed pattern.
// Comparisons against literal constants (x == 0, v <= 0) are exact and not
// flagged; strict < and > on interior values are the caller's business.
//
// Deliberate bit-identity checks (a compare that must NOT tolerate epsilon
// drift) are annotated //lint:epsfloat-ok <reason>.
func NewEpsFloat() *Analyzer {
	return &Analyzer{
		Name:     "epsfloat",
		Doc:      "forbids raw float64 ==/!=/<=/>= on model time/distance values outside the epsilon helpers",
		Suppress: "epsfloat-ok",
		AppliesTo: prefixFilter(
			"dasc/internal/core",
			"dasc/internal/dag",
			"dasc/internal/matching",
			"dasc/internal/geo",
			"dasc/internal/model",
			"dasc/internal/sim",
			"dasc/internal/server",
		),
		Run: runEpsFloat,
	}
}

// epsSources maps named types to the fields/methods whose values are
// epsilon-sensitive times or distances. Matching is by type NAME, not
// package path, so the testdata packages can model the shapes locally.
var epsSources = map[string]map[string]bool{
	"Task":        {"Start": true, "Wait": true, "Deadline": true, "Expiry": true},
	"Worker":      {"Start": true, "Wait": true, "MaxDist": true, "Expiry": true, "TravelTime": true},
	"BatchWorker": {"ReadyAt": true, "DistBudget": true},
	"workerState": {"busyUntil": true, "distUsed": true},
}

// epsSourceParams are conventional parameter names that carry
// time/distance values across function boundaries (model.FeasibleFrom's
// readyAt and distBudget are the canonical case).
var epsSourceParams = map[string]bool{"readyAt": true, "travel": true, "distBudget": true, "deadline": true}

func runEpsFloat(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			tainted := taintFloats(pass, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok {
					return true
				}
				switch be.Op {
				case token.EQL, token.NEQ, token.LEQ, token.GEQ:
				default:
					return true
				}
				if !isNonConstFloat(pass, be.X) || !isNonConstFloat(pass, be.Y) {
					return true
				}
				if mentionsEps(be.X) || mentionsEps(be.Y) {
					return true
				}
				if !exprTainted(pass, tainted, be.X) && !exprTainted(pass, tainted, be.Y) {
					return true
				}
				pass.Reportf(be.OpPos, "raw float64 %s on a model time/distance value; compare through timeEps/DistEps (or the model feasibility helpers)", be.Op)
				return true
			})
		}
	}
	return nil
}

// taintFloats seeds taint from conventionally named float parameters and
// propagates it through plain assignments, twice — the second pass reaches
// values that flow backwards through loop bodies.
func taintFloats(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	tainted := map[types.Object]bool{}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if epsSourceParams[name.Name] && isFloatObj(pass.TypesInfo.Defs[name]) {
					tainted[pass.TypesInfo.Defs[name]] = true
				}
			}
		}
	}
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
				if obj == nil || !isFloatObj(obj) {
					continue
				}
				if exprTainted(pass, tainted, as.Rhs[k]) {
					tainted[obj] = true
				}
			}
			return true
		})
	}
	return tainted
}

func isFloatObj(obj types.Object) bool {
	if obj == nil || obj.Type() == nil {
		return false
	}
	b, ok := obj.Type().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isNonConstFloat reports whether e is a float-typed expression that is not
// a compile-time constant (comparisons against constants are exact).
func isNonConstFloat(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// mentionsEps reports whether the expression's subtree references an
// epsilon constant (an identifier ending in "Eps").
func mentionsEps(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && strings.HasSuffix(id.Name, "Eps") {
			found = true
		}
		return !found
	})
	return found
}

// exprTainted reports whether the expression's subtree contains an
// epsilon-sensitive source: a tainted local, a selection of a registered
// time/distance member, a DistanceFunc call, or a registered source
// function.
func exprTainted(pass *Pass, tainted map[types.Object]bool, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[n]; obj != nil && tainted[obj] {
				found = true
			}
		case *ast.SelectorExpr:
			tn := namedTypeName(pass.TypesInfo, n.X)
			if members, ok := epsSources[tn]; ok && members[n.Sel.Name] {
				found = true
			}
		case *ast.CallExpr:
			// Calls of DistanceFunc-typed values (b.dist(...), dist(...)).
			if tv, ok := pass.TypesInfo.Types[n.Fun]; ok && tv.Type != nil && typeName(tv.Type) == "DistanceFunc" {
				found = true
			}
		}
		return !found
	})
	return found
}
