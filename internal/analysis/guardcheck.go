package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GuardCheck is the static race detector over the repository's
// declared shared state: any struct field annotated
//
//	//ghost:guards lock=<vms|guest|host|hyp>
//	//ghost:guards lock=owner
//	//ghost:guards lock=self
//
// may only be read or written while its guard holds. The held-lock
// state is lockcheck's, extended interprocedurally with the
// Universe's lock-effect summaries: a call
// to a helper that acquires the host lock leaves "host" held in the
// caller's state, so field accesses after the call are legal.
//
// Guard semantics:
//
//   - a component guard requires that component lock held (in any
//     mode — acquired here, deferred, or assumed via //ghost:requires);
//   - lock=owner requires any ranked discipline lock — for state
//     whose owning component varies with the enclosing object
//     (pgtable internals);
//   - lock=self requires the access to occur in a method of the
//     declaring type — an encapsulation guard for fields serialized
//     by the type's own private mutex.
//
// Constructor scope (functions named New*/new* and init) is exempt:
// freshly allocated state has no concurrent observers. Composite-
// literal field keys are likewise initialization, not access. Known
// limits, as with lockcheck: accesses through aliases (a pointer to
// the field smuggled out of the guarded region) and reflection are
// invisible; the ghost oracle's non-interference check remains the
// dynamic backstop.
type GuardCheck struct{}

func (*GuardCheck) Name() string { return "guardcheck" }

// isConstructorScope reports constructors and init functions, which
// build state that nothing else can see yet; guardcheck and
// telemetrycheck's registration rule exempt them.
func isConstructorScope(name string) bool {
	return name == "init" || strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new")
}

func (gc *GuardCheck) Run(u *Universe, pkg *Package) []Finding {
	out := u.MetaFindings(pkg, "guardcheck")
	if len(u.guards) == 0 {
		return out
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || isLockPrimitive(fd) || isConstructorScope(fd.Name.Name) {
				continue
			}
			// The pairing findings of the embedded lock hooks are
			// lockcheck's to report; this walk only wants the held set.
			var scratch []Finding
			g := &guardFlow{
				lockFlow: newLockFlow(u, pkg, &scratch, fd.Name.Name),
				recvType: receiverTypeObj(pkg, fd),
				seen:     make(map[token.Pos]bool),
				skipKeys: make(map[*ast.Ident]bool),
				findings: &out,
			}
			flow[heldSet]{pkg, g}.body(fd.Body, lockEntry(u, pkg, fd), "function end")
		}
	}
	return out
}

// guardFlow is guardcheck's set of flow hooks: lockcheck's, plus the
// callees' lock-effect summaries, plus the guard check at every
// identifier the walk evaluates.
type guardFlow struct {
	*lockFlow
	recvType types.Object
	seen     map[token.Pos]bool
	skipKeys map[*ast.Ident]bool
	findings *[]Finding
}

// call applies the callee's net lock effect after lockcheck's rules,
// when it has one. Lockcheck itself does without: its per-function
// pairing rules already see every wrapper body directly.
func (g *guardFlow) call(call *ast.CallExpr, at ast.Stmt, st heldSet) {
	g.lockFlow.call(call, at, st)
	if op, _, _ := classifyLockCall(g.pkg, call); op != opNone {
		return
	}
	if callee := resolveCallee(g.pkg, call); callee != nil {
		if eff := g.u.LockEffectOf(callee); eff != nil {
			for _, c := range eff.Releases {
				delete(st, c)
			}
			for _, c := range eff.Acquires {
				st[c] = heldActive
			}
		}
	}
}

func (g *guardFlow) visit(n ast.Node, st heldSet) {
	switch n := n.(type) {
	case *ast.CompositeLit:
		// Literal field keys initialize a fresh value; they are not
		// accesses to shared state.
		for _, el := range n.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					g.skipKeys[id] = true
				}
			}
		}
	case *ast.Ident:
		if g.skipKeys[n] || g.seen[n.Pos()] {
			return
		}
		obj := g.pkg.Info.Uses[n]
		if obj == nil {
			return
		}
		guard := g.u.GuardOf(obj)
		if guard == nil || guardSatisfied(guard, st, g.recvType) {
			return
		}
		g.seen[n.Pos()] = true
		*g.findings = append(*g.findings, Finding{
			Pos:      g.u.Fset.Position(n.Pos()),
			Analyzer: "guardcheck",
			Message:  guardMessage(g.fname, guard, st),
		})
	}
}

// guardSatisfied decides whether the held-lock state (plus the
// enclosing method's receiver type for lock=self) satisfies a guard.
func guardSatisfied(g *Guard, st heldSet, recvType types.Object) bool {
	switch {
	case g.Self:
		return recvType != nil && g.DeclType != nil && recvType == g.DeclType
	case g.Owner:
		for comp := range st {
			if _, ranked := LockRanks[comp]; ranked {
				return true
			}
		}
		return false
	}
	_, held := st[g.Comp]
	return held
}

func guardMessage(fname string, g *Guard, st heldSet) string {
	field := g.TypeName + "." + g.FieldName
	switch {
	case g.Self:
		return fmt.Sprintf(
			"%s: access to %s (//ghost:guards lock=self) outside a method of %s; the field is private to the declaring type's own synchronization",
			fname, field, g.TypeName)
	case g.Owner:
		return fmt.Sprintf(
			"%s: access to %s (//ghost:guards lock=owner) with no discipline lock held; acquire the owning component's lock first",
			fname, field)
	}
	return fmt.Sprintf(
		"%s: access to %s (//ghost:guards lock=%s) without the %q lock (held: %s)",
		fname, field, g.Comp, g.Comp, st.describe())
}

// receiverTypeObj resolves a method declaration's receiver to its
// type-name object, or nil for plain functions.
func receiverTypeObj(pkg *Package, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	t := fd.Recv.List[0].Type
	for {
		switch e := t.(type) {
		case *ast.StarExpr:
			t = e.X
		case *ast.ParenExpr:
			t = e.X
		case *ast.IndexExpr: // generic receiver
			t = e.X
		case *ast.Ident:
			return pkg.Info.Uses[e]
		default:
			return nil
		}
	}
}
