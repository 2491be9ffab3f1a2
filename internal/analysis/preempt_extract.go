package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"path/filepath"
	"strings"

	"ghostspec/internal/analysis/preempt"
)

// Preemption points. The deterministic multi-CPU scheduler
// (internal/sched) may switch virtual CPUs only where the program
// crosses a preemption point (internal/analysis/preempt): lock
// acquire/release sites (where the ghost oracle records abstractions
// and where the rank discipline serializes), TLBI emissions (the edges
// of every break-before-make window), and page-table visitor steps
// (the per-entry granularity at which a walk can observe a racing
// mutation). Each such call passes its point: a package-level variable
// initialised with preempt.At(kind, component, func, ordinal), handed
// to the spinlock, TLB or walker that crosses it. At registers the
// point at init; PreemptCheck holds every declaration to its call.

// PreemptCheck checks the preemption points of a package:
//
//   - every lock, TLBI or visitor-step call passes a point, except a
//     deferred one, and except a helper forwarding its own
//     *preempt.Point parameter (hv.lockHost's body, the TLBI bridges);
//   - each declared point is passed at exactly one call;
//   - a point's declared kind, component, function and ordinal are
//     those of its call.
//
// internal/arch is exempt for the TLBI kind (it implements the TLB),
// and a testdata package unless it imports preempt: the other golden
// inputs are not part of the program.
type PreemptCheck struct{}

func (*PreemptCheck) Name() string { return "preemptcheck" }

func (*PreemptCheck) Run(u *Universe, pkg *Package) []Finding {
	_, findings := scanPoints(u, pkg)
	return findings
}

func isTestdata(pkg *Package) bool {
	return strings.Contains(filepath.ToSlash(pkg.Dir), "/testdata/")
}

// pointName is what names a point within its package.
type pointName struct {
	kind     preempt.Kind
	comp, fn string
	ordinal  int
}

func (n pointName) String() string {
	return fmt.Sprintf("%s %q #%d in %s", n.kind, n.comp, n.ordinal, n.fn)
}

// pointDecl is a package-level point variable, v = preempt.At(...).
type pointDecl struct {
	ident *ast.Ident
	at    pointName // as declared
	uses  int
}

// pointRow is one call passing a declared point.
type pointRow struct {
	pointName
	call *ast.CallExpr
}

// scanPoints returns the calls in pkg that pass a declared point, and
// the checker's findings.
func scanPoints(u *Universe, pkg *Package) ([]pointRow, []Finding) {
	if strings.HasSuffix(pkg.Path, "internal/analysis/preempt") || isTestdata(pkg) && !importsPreempt(pkg) {
		return nil, nil
	}
	var out []Finding
	report := func(n ast.Node, format string, args ...any) {
		out = append(out, Finding{Pos: u.Fset.Position(n.Pos()), Analyzer: "preemptcheck", Message: fmt.Sprintf(format, args...)})
	}
	decls, order := pointDecls(pkg, report)
	isArch := strings.HasSuffix(pkg.Path, "internal/arch")
	var rows []pointRow
	ordinals := map[pointName]int{} // by name with ordinal 0
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			params := map[types.Object]bool{}
			addParams(pkg, fd.Type, params)
			deferred := map[*ast.CallExpr]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					addParams(pkg, n.Type, params)
				case *ast.DeferStmt:
					deferred[n.Call] = true
				case *ast.CallExpr:
					kind, comp, ok := classifyPoint(pkg, n, isArch)
					if !ok {
						return true
					}
					passed, forwarded := pointArgs(pkg, n, decls, params)
					switch {
					case len(passed) > 1:
						report(n, "%s call passes %d preemption points; it crosses one", kind, len(passed))
					case len(passed) == 1:
						key := pointName{kind, comp, fd.Name.Name, 0}
						r := pointRow{pointName{kind, comp, fd.Name.Name, ordinals[key]}, n}
						ordinals[key]++
						rows = append(rows, r)
						d := passed[0]
						if d.uses++; d.uses > 1 {
							report(n, "point %s is passed at %d calls; a point names exactly one", d.ident.Name, d.uses)
						} else if d.at != r.pointName {
							report(n, "point %s is declared %s, but its call is %s", d.ident.Name, d.at, r.pointName)
						}
					case !forwarded && !deferred[n]:
						report(n, "%s call passes no preemption point; declare one with preempt.At", kind)
					}
				}
				return true
			})
		}
	}
	for _, d := range order {
		if d.uses == 0 {
			report(d.ident, "point %s is passed at no call", d.ident.Name)
		}
	}
	return rows, out
}

// pointDecls collects pkg's point variables, by object and in source
// order. A declaration whose arguments are not constants is reported.
func pointDecls(pkg *Package, report func(ast.Node, string, ...any)) (map[types.Object]*pointDecl, []*pointDecl) {
	decls := map[types.Object]*pointDecl{}
	var order []*pointDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				for i := 0; ok && i < len(vs.Values) && i < len(vs.Names); i++ {
					call, isCall := ast.Unparen(vs.Values[i]).(*ast.CallExpr)
					if !isCall || !isPreemptAt(pkg, call) {
						continue
					}
					at, constArgs := atArgs(pkg, call)
					obj := pkg.Info.Defs[vs.Names[i]]
					if !constArgs || obj == nil {
						report(call, "preempt.At needs constant arguments: kind, component, function, ordinal")
						continue
					}
					decls[obj] = &pointDecl{ident: vs.Names[i], at: at}
					order = append(order, decls[obj])
				}
			}
		}
	}
	return decls, order
}

// isPreemptAt reports whether call is preempt.At(...).
func isPreemptAt(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "At" {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "internal/analysis/preempt")
}

// atArgs reads preempt.At's constant arguments.
func atArgs(pkg *Package, call *ast.CallExpr) (pointName, bool) {
	if len(call.Args) != 4 {
		return pointName{}, false
	}
	var vals [4]constant.Value
	for i, a := range call.Args {
		want := constant.String
		if i == 3 {
			want = constant.Int
		}
		if vals[i] = pkg.Info.Types[a].Value; vals[i] == nil || vals[i].Kind() != want {
			return pointName{}, false
		}
	}
	ord, _ := constant.Int64Val(vals[3])
	return pointName{preempt.Kind(constant.StringVal(vals[0])), constant.StringVal(vals[1]), constant.StringVal(vals[2]), int(ord)}, true
}

// pointArgs finds the points a call passes anywhere in its arguments
// (a visitor step passes its point through t.step(p, ctx)): declared
// point variables, and whether it forwards a *preempt.Point parameter.
func pointArgs(pkg *Package, call *ast.CallExpr, decls map[types.Object]*pointDecl, params map[types.Object]bool) (passed []*pointDecl, forwarded bool) {
	for _, a := range call.Args {
		ast.Inspect(a, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if d := decls[pkg.Info.Uses[id]]; d != nil {
					passed = append(passed, d)
				} else if params[pkg.Info.Uses[id]] {
					forwarded = true
				}
			}
			return true
		})
	}
	return passed, forwarded
}

// addParams records ft's *preempt.Point parameters.
func addParams(pkg *Package, ft *ast.FuncType, params map[types.Object]bool) {
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if obj := pkg.Info.Defs[name]; obj != nil && isNamed(obj.Type(), "internal/analysis/preempt", "Point") {
				params[obj] = true
			}
		}
	}
}

func importsPreempt(pkg *Package) bool {
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			if strings.HasSuffix(strings.Trim(imp.Path.Value, `"`), "internal/analysis/preempt") {
				return true
			}
		}
	}
	return false
}

// classifyPoint decides whether a call site is a preemption point.
func classifyPoint(pkg *Package, call *ast.CallExpr, isArch bool) (kind preempt.Kind, comp string, ok bool) {
	switch op, c, ranked := classifyLockCall(pkg, call); op {
	case opAcquire, opRelease:
		if !ranked {
			c = ""
		}
		if op == opAcquire {
			return preempt.KindLockAcquire, c, true
		}
		return preempt.KindLockRelease, c, true
	}
	if !isArch && isTLBIEmission(pkg, call) {
		return preempt.KindTLBI, "", true
	}
	if isVisitorStep(pkg, call) {
		return preempt.KindVisitorStep, "", true
	}
	return "", "", false
}

// isVisitorStep matches v.Fn(ctx) where v is a pgtable.Visitor — the
// per-entry callback invocation of the generic walk.
func isVisitorStep(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Fn" {
		return false
	}
	t := exprType(pkg, sel.X)
	return t != nil && isNamed(t, "internal/pgtable", "Visitor")
}
