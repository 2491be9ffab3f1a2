// Package analysis implements ghostlint, the repository's static
// lock-discipline and spec-invariant analyzer suite (run by
// cmd/ghostlint and the CI lint job).
//
// The paper's oracle records component abstractions exactly at lock
// acquire/release (§3.2), so the specification's ownership reasoning
// is only as sound as the lock discipline of the code under test.
// This package mechanizes that discipline:
//
//   - lockcheck: paired Lock/Unlock on every path (preferring defer),
//     //ghost:requires annotations honoured at call sites, and
//     acquisition order following the declared rank table
//     (vms < guest < host < hyp).
//   - hookcheck: spinlock Hooks callbacks and under-lock
//     Instrumentation methods must not acquire any spinlock —
//     deadlock by construction.
//   - ptecheck: raw descriptor bit-twiddling on PTE values is only
//     legal inside internal/arch; everyone else uses the accessors.
//   - telemetrycheck: metric registration only at init/constructor
//     scope, never on a hot path.
//   - snapshotcheck: captured snapshots (Capture*/Checkpoint handles)
//     must reach a Restore*/Release* or escape the function, and
//     Restore*-named code outside internal/arch must not write frames
//     directly — the CoW baseline machinery owns frame restoration.
//   - guardcheck: struct fields annotated //ghost:guards lock=<comp>
//     may only be read or written while that component lock is held
//     (per the same held-lock interpretation lockcheck runs, extended
//     with per-function lock-effect summaries) — a static race
//     detector over the declared shared state.
//   - bbmcheck: between an invalidating page-table entry store (break)
//     and the next valid store to the same entry (make) a TLBI must be
//     emitted, and valid entries are never overwritten in place — the
//     static twin of the ghost oracle's FailStaleTLB check.
//   - preemptcheck: every lock, TLBI and page-table visitor-step call
//     passes its preemption point, a variable declared with
//     preempt.At whose kind, component, function and ordinal are those
//     of the one call it is passed at — the deterministic scheduler's
//     points are these declarations.
//
// Annotation grammar (on a function's doc comment):
//
//	//ghost:requires lock=<vms|guest|host|hyp>   (repeatable)
//	//ghost:requires lock=dynamic   runtime-validated; body assumes held
//	//ghost:requires lock=owner     pgtable methods; lock resolved from
//	                                the receiver at the call site
//
// and on a struct field (doc comment or trailing line comment):
//
//	//ghost:guards lock=<vms|guest|host|hyp>   held-component guard
//	//ghost:guards lock=owner   any ranked discipline lock qualifies
//	//ghost:guards lock=self    only methods of the declaring type
//
// Suppression:
//
//	//ghostlint:ignore <analyzer...> <reason>
//
// on the finding's line, the line above it, or the enclosing
// function's doc comment. The -strict flag of cmd/ghostlint disables
// suppressions (and reports stale directives that cover no finding);
// CI uses that to prove the seeded internal/bugdemo inversion is
// still detected.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// An Analyzer checks one package of an already-loaded Universe.
type Analyzer interface {
	Name() string
	Run(u *Universe, pkg *Package) []Finding
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []Analyzer {
	return []Analyzer{
		&LockCheck{},
		&GuardCheck{},
		&BBMCheck{},
		&HookCheck{},
		&PTECheck{},
		&TelemetryCheck{},
		&SnapshotCheck{},
		&PreemptCheck{},
	}
}

// AnalyzerNames lists the valid analyzer names (for suppression
// parsing).
func AnalyzerNames() map[string]bool {
	m := make(map[string]bool)
	for _, a := range Analyzers() {
		m[a.Name()] = true
	}
	return m
}

// Requires is a parsed //ghost:requires annotation.
type Requires struct {
	Comps   []string // concrete component keys, in rank order
	Dynamic bool     // lock=dynamic
	Owner   bool     // lock=owner (pgtable: resolved from receiver)
}

// parseRequires extracts the //ghost:requires clauses from a doc
// comment; nil if none. Unknown lock= values are reported so a typo'd
// annotation cannot silently check nothing.
func parseRequires(doc *ast.CommentGroup) (*Requires, error) {
	if doc == nil {
		return nil, nil
	}
	var req *Requires
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//ghost:requires")
		if !ok {
			continue
		}
		if req == nil {
			req = &Requires{}
		}
		for _, field := range strings.Fields(rest) {
			val, ok := strings.CutPrefix(field, "lock=")
			if !ok {
				return nil, fmt.Errorf("ghost:requires: unrecognized field %q", field)
			}
			switch val {
			case "dynamic":
				req.Dynamic = true
			case "owner":
				req.Owner = true
			default:
				if _, ok := LockRanks[val]; !ok {
					return nil, fmt.Errorf("ghost:requires: unknown lock %q", val)
				}
				req.Comps = append(req.Comps, val)
			}
		}
	}
	if req != nil {
		sort.Slice(req.Comps, func(i, j int) bool {
			return LockRanks[req.Comps[i]] < LockRanks[req.Comps[j]]
		})
	}
	return req, nil
}

// Guard is a parsed //ghost:guards annotation on a struct field.
type Guard struct {
	// Comp is the component lock that must be held (one of the
	// LockRanks keys); empty for owner/self guards.
	Comp string
	// Owner: any ranked discipline lock qualifies — the field belongs
	// to whichever component the enclosing object serves (pgtable).
	Owner bool
	// Self: the field is private to the declaring type's methods
	// (which serialize access through their own mutex).
	Self bool
	// DeclType is the type-name object of the declaring struct, and
	// TypeName/FieldName render it for diagnostics.
	DeclType  types.Object
	TypeName  string
	FieldName string
}

// Desc renders the guard value as written in the annotation.
func (g *Guard) Desc() string {
	switch {
	case g.Owner:
		return "owner"
	case g.Self:
		return "self"
	}
	return g.Comp
}

// parseGuards extracts a //ghost:guards clause from a field's comment
// group; nil if none.
func parseGuards(doc *ast.CommentGroup) (*Guard, error) {
	if doc == nil {
		return nil, nil
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//ghost:guards")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 1 {
			return nil, fmt.Errorf("ghost:guards: want exactly one lock= clause, got %q", rest)
		}
		val, ok := strings.CutPrefix(fields[0], "lock=")
		if !ok {
			return nil, fmt.Errorf("ghost:guards: unrecognized field %q", fields[0])
		}
		switch val {
		case "owner":
			return &Guard{Owner: true}, nil
		case "self":
			return &Guard{Self: true}, nil
		default:
			if _, ok := LockRanks[val]; !ok {
				return nil, fmt.Errorf("ghost:guards: unknown lock %q", val)
			}
			return &Guard{Comp: val}, nil
		}
	}
	return nil, nil
}

// LockEffect summarizes a function's net effect on the held-lock set:
// ranked components held at return that were not held at entry
// (Acquires) and components it releases on the caller's behalf
// (Releases). Summaries exist only for functions whose lock
// operations all sit in straight-line top-level statements; anything
// conditional gets no summary and callers treat it as lock-neutral.
type LockEffect struct {
	Acquires []string
	Releases []string
}

func (e *LockEffect) equal(o *LockEffect) bool {
	if len(e.Acquires) != len(o.Acquires) || len(e.Releases) != len(o.Releases) {
		return false
	}
	for i, c := range e.Acquires {
		if o.Acquires[i] != c {
			return false
		}
	}
	for i, c := range e.Releases {
		if o.Releases[i] != c {
			return false
		}
	}
	return true
}

// funcSource ties a function's syntax to its package.
type funcSource struct {
	decl *ast.FuncDecl
	pkg  *Package
}

// Universe is the cross-package index built once after loading:
// annotations, the module-internal call graph, and the derived
// may-panic and acquires-spinlock sets.
type Universe struct {
	Fset *token.FileSet
	Pkgs []*Package

	requires  map[types.Object]*Requires
	funcDecls map[types.Object]*funcSource

	// guards maps struct-field objects to their //ghost:guards
	// annotation.
	guards map[types.Object]*Guard

	// effects holds the call-graph lock-effect summaries (guardcheck's
	// interprocedural extension of the lockcheck walker).
	effects map[types.Object]*LockEffect

	// mayPanic holds functions that can reach the hypervisor's panic
	// channel ((*Hypervisor).hypPanic) — the paths across which
	// lockcheck insists unlocks are deferred. Functions containing
	// recover() are propagation barriers.
	mayPanic map[types.Object]bool

	// acquires holds functions that (transitively) acquire a spinlock,
	// mapped to a human-readable witness for hookcheck reports.
	acquires map[types.Object]string

	// Findings raised while building the universe itself (bad
	// annotations).
	metaFindings []Finding
}

// NewUniverse indexes everything the loader has loaded. Call it after
// all requested directories are in.
func NewUniverse(ld *Loader) *Universe {
	u := &Universe{
		Fset:      ld.Fset,
		Pkgs:      ld.Packages(),
		requires:  make(map[types.Object]*Requires),
		funcDecls: make(map[types.Object]*funcSource),
		guards:    make(map[types.Object]*Guard),
		effects:   make(map[types.Object]*LockEffect),
		mayPanic:  make(map[types.Object]bool),
		acquires:  make(map[types.Object]string),
	}
	for _, pkg := range u.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok {
					u.indexGuards(pkg, gd)
					continue
				}
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj := pkg.Info.Defs[fd.Name]
				if obj == nil {
					continue
				}
				u.funcDecls[obj] = &funcSource{decl: fd, pkg: pkg}
				req, err := parseRequires(fd.Doc)
				if err != nil {
					u.metaFindings = append(u.metaFindings, Finding{
						Pos:      u.Fset.Position(fd.Pos()),
						Analyzer: "lockcheck",
						Message:  err.Error(),
					})
					continue
				}
				if req != nil {
					u.requires[obj] = req
				}
			}
		}
	}
	u.buildMayPanic()
	u.buildAcquires()
	u.buildLockEffects()
	return u
}

// indexGuards records //ghost:guards annotations from the struct
// fields of a type declaration.
func (u *Universe) indexGuards(pkg *Package, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, field := range st.Fields.List {
			g, err := parseGuards(field.Doc)
			if g == nil && err == nil {
				g, err = parseGuards(field.Comment)
			}
			if err != nil {
				u.metaFindings = append(u.metaFindings, Finding{
					Pos:      u.Fset.Position(field.Pos()),
					Analyzer: "guardcheck",
					Message:  err.Error(),
				})
				continue
			}
			if g == nil {
				continue
			}
			g.DeclType = pkg.Info.Defs[ts.Name]
			g.TypeName = ts.Name.Name
			for _, name := range field.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					fg := *g
					fg.FieldName = name.Name
					u.guards[obj] = &fg
				}
			}
		}
	}
}

// GuardOf returns the //ghost:guards annotation on a field object, if
// any.
func (u *Universe) GuardOf(obj types.Object) *Guard { return u.guards[obj] }

// LockEffectOf returns the lock-effect summary for a function object,
// or nil when the function is lock-neutral or too branchy to
// summarize.
func (u *Universe) LockEffectOf(obj types.Object) *LockEffect { return u.effects[obj] }

// buildLockEffects computes, to a fixpoint over the call graph, the
// net lock effect of every function whose ranked lock operations all
// occur as straight-line top-level statements (the wrapper-helper
// shape: lock a component, or release one taken by a sibling helper).
// Functions with conditional locking get no summary — the walker then
// treats their call sites as lock-neutral, which is exactly how
// lockcheck's own per-function analysis already views them.
func (u *Universe) buildLockEffects() {
	// The iteration cap bounds pathological wrapper chains; real
	// chains are one or two deep.
	for iter := 0; iter < 10; iter++ {
		changed := false
		for obj, fs := range u.funcDecls {
			if fs.decl.Body == nil || isLockPrimitive(fs.decl) {
				continue
			}
			eff := u.computeLockEffect(fs)
			old := u.effects[obj]
			switch {
			case eff == nil:
				if old != nil {
					delete(u.effects, obj)
					changed = true
				}
			case old == nil || !old.equal(eff):
				u.effects[obj] = eff
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// computeLockEffect summarizes one function, or returns nil when no
// (sound) summary exists.
func (u *Universe) computeLockEffect(fs *funcSource) *LockEffect {
	net := make(map[string]int)
	handled := 0
	for _, s := range fs.decl.Body.List {
		switch s := s.(type) {
		case *ast.ExprStmt:
			call, ok := ast.Unparen(s.X).(*ast.CallExpr)
			if !ok {
				continue
			}
			op, comp, ranked := classifyLockCall(fs.pkg, call)
			switch op {
			case opAcquire:
				if !ranked {
					return nil
				}
				net[comp]++
				handled++
			case opRelease:
				if !ranked {
					return nil
				}
				net[comp]--
				handled++
			default:
				if callee := resolveCallee(fs.pkg, call); callee != nil {
					if eff := u.effects[callee]; eff != nil {
						for _, c := range eff.Acquires {
							net[c]++
						}
						for _, c := range eff.Releases {
							net[c]--
						}
					}
				}
			}
		case *ast.DeferStmt:
			// A deferred release runs at return: it cancels an earlier
			// acquisition in the net-at-return view.
			if op, comp, ranked := classifyLockCall(fs.pkg, s.Call); op == opRelease && ranked {
				net[comp]--
				handled++
			}
		}
	}
	// Bail out when any ranked lock operation hides below the top
	// level (branches, loops, literals): the linear net would be
	// unsound there.
	total := 0
	ast.Inspect(fs.decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if op, _, ranked := classifyLockCall(fs.pkg, call); op != opNone && ranked {
				total++
			}
		}
		return true
	})
	if total != handled {
		return nil
	}
	eff := &LockEffect{}
	for comp, n := range net {
		switch {
		case n > 0:
			eff.Acquires = append(eff.Acquires, comp)
		case n < 0:
			eff.Releases = append(eff.Releases, comp)
		}
	}
	if len(eff.Acquires) == 0 && len(eff.Releases) == 0 {
		return nil
	}
	sort.Strings(eff.Acquires)
	sort.Strings(eff.Releases)
	return eff
}

// MetaFindings returns diagnostics from annotation parsing attributed
// to the named analyzer, for the package that declares them.
func (u *Universe) MetaFindings(pkg *Package, analyzer string) []Finding {
	var out []Finding
	for _, f := range u.metaFindings {
		if f.Analyzer != analyzer {
			continue
		}
		for _, af := range pkg.Files {
			pos := u.Fset.Position(af.Pos())
			if pos.Filename == f.Pos.Filename {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

// RequiresOf returns the annotation on a function object, if any.
func (u *Universe) RequiresOf(obj types.Object) *Requires { return u.requires[obj] }

// MayPanic reports whether calls to obj can reach hypPanic.
func (u *Universe) MayPanic(obj types.Object) bool { return u.mayPanic[obj] }

// AcquiresSpinlock reports whether obj (transitively) acquires a
// spinlock, with a witness description.
func (u *Universe) AcquiresSpinlock(obj types.Object) (string, bool) {
	w, ok := u.acquires[obj]
	return w, ok
}

// resolveCallee maps a call expression to the function object it
// invokes, or nil for builtins, function values and interface methods
// we cannot resolve statically.
func resolveCallee(pkg *Package, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj := pkg.Info.Uses[fun]; obj != nil {
			if _, ok := obj.(*types.Func); ok {
				return obj
			}
		}
	case *ast.SelectorExpr:
		if obj := pkg.Info.Uses[fun.Sel]; obj != nil {
			if _, ok := obj.(*types.Func); ok {
				return obj
			}
		}
	}
	return nil
}

// isBuiltin reports whether the call invokes the named builtin
// (panic, recover, ...).
func isBuiltin(pkg *Package, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	obj := pkg.Info.Uses[id]
	if obj == nil {
		// Type info missing (stubbed import fallout): trust the name.
		return true
	}
	_, isB := obj.(*types.Builtin)
	return isB
}

// eachCall invokes fn for every call expression in the function body,
// with the resolved callee (nil if unresolvable).
func (u *Universe) eachCall(fs *funcSource, fn func(call *ast.CallExpr, callee types.Object)) {
	if fs.decl.Body == nil {
		return
	}
	ast.Inspect(fs.decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			fn(call, resolveCallee(fs.pkg, call))
		}
		return true
	})
}

// containsRecover reports whether the function body calls recover()
// at any nesting depth; such functions contain hypervisor panics
// rather than propagating them.
func containsRecover(fs *funcSource) bool {
	found := false
	ast.Inspect(fs.decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isBuiltin(fs.pkg, call, "recover") {
			found = true
		}
		return !found
	})
	return found
}

// buildMayPanic seeds the may-panic set from (*Hypervisor).hypPanic —
// the hypervisor's one designated panic channel — and propagates it
// backwards over the call graph to a fixpoint. Ordinary panics
// (assertion panics in spinlock/arch, which indicate harness bugs,
// not guest-reachable exits) are deliberately not seeds: lockcheck's
// panic-safety rule is about hypervisor panics unwinding through held
// locks.
func (u *Universe) buildMayPanic() {
	for obj := range u.funcDecls {
		if obj.Name() == "hypPanic" && obj.Pkg() != nil &&
			strings.HasSuffix(obj.Pkg().Path(), "internal/hyp") {
			u.mayPanic[obj] = true
		}
	}
	if len(u.mayPanic) == 0 {
		return
	}
	barriers := make(map[types.Object]bool)
	for obj, fs := range u.funcDecls {
		if fs.decl.Body != nil && containsRecover(fs) {
			barriers[obj] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for obj, fs := range u.funcDecls {
			if u.mayPanic[obj] || barriers[obj] || fs.decl.Body == nil {
				continue
			}
			u.eachCall(fs, func(_ *ast.CallExpr, callee types.Object) {
				if callee != nil && u.mayPanic[callee] && !u.mayPanic[obj] {
					u.mayPanic[obj] = true
					changed = true
				}
			})
		}
	}
}

// buildAcquires computes, to a fixpoint, the set of functions that
// acquire a spinlock directly or through a module-internal call.
// Interface calls are opaque to this analysis; hookcheck documents
// that limit.
func (u *Universe) buildAcquires() {
	for obj, fs := range u.funcDecls {
		if fs.decl.Body == nil {
			continue
		}
		// The spinlock package's own machinery is the primitive, not a
		// violation.
		if strings.HasSuffix(fs.pkg.Path, "internal/spinlock") {
			continue
		}
		u.eachCall(fs, func(call *ast.CallExpr, _ types.Object) {
			if _, ok := u.acquires[obj]; ok {
				return
			}
			if op, comp, _ := classifyLockCall(fs.pkg, call); op == opAcquire {
				u.acquires[obj] = fmt.Sprintf("acquires spinlock %q", comp)
			}
		})
	}
	for changed := true; changed; {
		changed = false
		for obj, fs := range u.funcDecls {
			if _, done := u.acquires[obj]; done || fs.decl.Body == nil {
				continue
			}
			u.eachCall(fs, func(_ *ast.CallExpr, callee types.Object) {
				if callee == nil {
					return
				}
				if _, ok := u.acquires[obj]; ok {
					return
				}
				if _, ok := u.acquires[callee]; ok {
					u.acquires[obj] = fmt.Sprintf("calls %s, which acquires a spinlock", callee.Name())
					changed = true
				}
			})
		}
	}
}

// suppressionIndex records //ghostlint:ignore directives for one
// package: per-line entries plus function-body ranges for directives
// on a function's doc comment.
type suppressionIndex struct {
	// byLine maps filename → line → suppressed analyzer set (nil set
	// means all analyzers).
	byLine map[string]map[int]map[string]bool
	// ranges holds function-scope suppressions.
	ranges []suppRange
	// directives lists every //ghostlint:ignore comment with the span
	// of findings it can cover, for stale-suppression reporting.
	directives []directive
}

type suppRange struct {
	file       string
	start, end int // line range, inclusive
	analyzers  map[string]bool
}

// directive is one //ghostlint:ignore occurrence. A same-line
// directive covers findings on its own line and the one below; a
// function-doc directive covers the body range.
type directive struct {
	pos        token.Position
	file       string
	start, end int // covered line range, inclusive
	analyzers  map[string]bool
	names      string // analyzer list as written, for diagnostics
}

// buildSuppressionIndex scans all comments of the files.
func buildSuppressionIndex(fset *token.FileSet, files []*ast.File) *suppressionIndex {
	idx := &suppressionIndex{byLine: make(map[string]map[int]map[string]bool)}
	valid := AnalyzerNames()
	// docDirective marks directives indexed as function-body ranges,
	// so the comment sweep below does not double-record them.
	docDirective := make(map[token.Pos]bool)
	for _, f := range files {
		// Function-doc directives apply to the whole body.
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil || fd.Body == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if set, ok := parseIgnore(c.Text, valid); ok {
					start := fset.Position(fd.Body.Pos())
					end := fset.Position(fd.Body.End())
					idx.ranges = append(idx.ranges, suppRange{
						file: start.Filename, start: start.Line, end: end.Line,
						analyzers: set,
					})
					idx.directives = append(idx.directives, directive{
						pos:  fset.Position(c.Pos()),
						file: start.Filename, start: start.Line, end: end.Line,
						analyzers: set, names: ignoreNames(set),
					})
					docDirective[c.Pos()] = true
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				set, ok := parseIgnore(c.Text, valid)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := idx.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					idx.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = set
				if !docDirective[c.Pos()] {
					idx.directives = append(idx.directives, directive{
						pos:  pos,
						file: pos.Filename, start: pos.Line, end: pos.Line + 1,
						analyzers: set, names: ignoreNames(set),
					})
				}
			}
		}
	}
	return idx
}

// ignoreNames renders a directive's analyzer set for messages.
func ignoreNames(set map[string]bool) string {
	if set == nil {
		return "any analyzer"
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// StaleSuppressions reports //ghostlint:ignore directives of the
// package that cover none of the given findings (which must be the
// full pre-suppression output of every analyzer): a suppression whose
// finding is gone is dead weight that would silently hide a future
// regression at that site. Reported under the meta-analyzer name
// "suppress"; cmd/ghostlint surfaces them in -strict runs and
// TestRepoClean enforces a clean tree.
func StaleSuppressions(pkg *Package, all []Finding) []Finding {
	idx := pkg.supp
	if idx == nil {
		return nil
	}
	var out []Finding
	for _, d := range idx.directives {
		live := false
		for _, f := range all {
			if f.Pos.Filename != d.file || f.Pos.Line < d.start || f.Pos.Line > d.end {
				continue
			}
			if d.analyzers == nil || d.analyzers[f.Analyzer] {
				live = true
				break
			}
		}
		if !live {
			out = append(out, Finding{
				Pos:      d.pos,
				Analyzer: "suppress",
				Message: fmt.Sprintf(
					"stale //ghostlint:ignore: no %s finding in its scope — remove the directive (or it will mask a future regression here)",
					d.names),
			})
		}
	}
	return out
}

// parseIgnore parses one //ghostlint:ignore comment. The returned set
// is nil when the directive names no specific analyzer (suppress
// all).
func parseIgnore(text string, valid map[string]bool) (map[string]bool, bool) {
	rest, ok := strings.CutPrefix(text, "//ghostlint:ignore")
	if !ok {
		return nil, false
	}
	var set map[string]bool
	for _, f := range strings.Fields(rest) {
		if !valid[f] {
			break // reason text starts here
		}
		if set == nil {
			set = make(map[string]bool)
		}
		set[f] = true
	}
	return set, true
}

// Suppressed reports whether a finding is covered by an ignore
// directive: same line, previous line, or enclosing suppressed
// function body.
func (pkg *Package) Suppressed(f Finding) bool {
	idx := pkg.supp
	if idx == nil {
		return false
	}
	if lines, ok := idx.byLine[f.Pos.Filename]; ok {
		for _, ln := range [2]int{f.Pos.Line, f.Pos.Line - 1} {
			if set, ok := lines[ln]; ok && (set == nil || set[f.Analyzer]) {
				return true
			}
		}
	}
	for _, r := range idx.ranges {
		if r.file == f.Pos.Filename && f.Pos.Line >= r.start && f.Pos.Line <= r.end &&
			(r.analyzers == nil || r.analyzers[f.Analyzer]) {
			return true
		}
	}
	return false
}

// SplitSuppressed partitions findings into (kept, suppressed).
func SplitSuppressed(pkg *Package, fs []Finding) (kept, suppressed []Finding) {
	for _, f := range fs {
		if pkg.Suppressed(f) {
			suppressed = append(suppressed, f)
		} else {
			kept = append(kept, f)
		}
	}
	return kept, suppressed
}

// SortFindings orders findings by position for stable output.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i].Pos, fs[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return fs[i].Message < fs[j].Message
	})
}
