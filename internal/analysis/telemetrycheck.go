package analysis

import (
	"fmt"
	"go/ast"
	"strings"
)

// TelemetryCheck keeps metric registration off hot paths. Registering
// a counter allocates, takes the registry mutex, and concatenates
// label strings — all fine once at startup, all unacceptable inside a
// trap handler. Calls to telemetry.NewCounter/NewGauge/NewHistogram
// are therefore only allowed in:
//
//   - package-level var initializers,
//   - init() functions, and
//   - constructors (functions named New* / new*).
//
// Anything else is a finding. Genuinely cold registration sites (e.g.
// the per-errno error counters, minted only on first failure) carry
// an explicit //ghostlint:ignore with the justification.
//
// The trace package's span-name interning (trace.NewName) has the
// same cost profile and gets the same rule, and span handles get a
// pairing discipline on top: every Begin must reach End on every path
// (spancheck.go).
type TelemetryCheck struct{}

func (*TelemetryCheck) Name() string { return "telemetrycheck" }

// registrationFuncs maps the allocating registry entry points to the
// import-path suffix of the package that defines them.
var registrationFuncs = map[string]string{
	"NewCounter":   "internal/telemetry",
	"NewGauge":     "internal/telemetry",
	"NewHistogram": "internal/telemetry",
	"NewName":      "internal/telemetry/trace",
}

// registrationQualifiers are the package qualifiers trusted when type
// info is unavailable (stubbed imports).
var registrationQualifiers = map[string]bool{
	"telemetry": true,
	"trace":     true,
}

func (tc *TelemetryCheck) Run(u *Universe, pkg *Package) []Finding {
	// The telemetry registry and the span tracer are the
	// implementations themselves.
	if strings.HasSuffix(pkg.Path, "internal/telemetry") ||
		strings.HasSuffix(pkg.Path, "internal/telemetry/trace") {
		return nil
	}
	var out []Finding
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Span pairing applies to every function, constructors
			// included — a leaked span corrupts the lane stack no
			// matter where it was begun.
			sa := newSpanFlow(u, pkg, &out, fd.Name.Name)
			flow[heldSet]{pkg, sa}.body(fd.Body, heldSet{}, "function end")

			// Package-level var blocks (GenDecl) are allowed
			// wholesale, as are init and constructors.
			name := fd.Name.Name
			if isConstructorScope(name) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if reg := registrationCall(pkg, call); reg != "" {
					out = append(out, Finding{
						Pos:      u.Fset.Position(call.Pos()),
						Analyzer: "telemetrycheck",
						Message: fmt.Sprintf(
							"%s: %s outside init/constructor scope; registration allocates and locks the registry/intern table — hoist it, or justify with //ghostlint:ignore if the path is provably cold",
							name, reg),
					})
				}
				return true
			})
		}
	}
	return out
}

// registrationCall returns the qualified registration function name if
// call is telemetry.New{Counter,Gauge,Histogram} or trace.NewName,
// else "".
func registrationCall(pkg *Package, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	wantPkg, ok := registrationFuncs[sel.Sel.Name]
	if !ok {
		return ""
	}
	// Confirm the qualifier is the defining package (by type info when
	// available, by name otherwise).
	if callee := resolveCallee(pkg, call); callee != nil {
		if callee.Pkg() == nil || !strings.HasSuffix(callee.Pkg().Path(), wantPkg) {
			return ""
		}
		return callee.Pkg().Name() + "." + sel.Sel.Name
	}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && registrationQualifiers[id.Name] {
		return id.Name + "." + sel.Sel.Name
	}
	return ""
}
