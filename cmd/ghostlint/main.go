// Command ghostlint runs the repository's static lock-discipline and
// spec-invariant analyzers (internal/analysis) over a set of
// packages.
//
// Usage:
//
//	go run ./cmd/ghostlint [-strict] [-v] [-json] [-budget d] [packages...]
//
// Package patterns are directories, optionally ending in /... for
// recursion; the default is ./... from the module root. Exit status
// is 0 when no findings survive suppression, 1 when findings are
// reported, 2 on load errors, and 3 when -budget is exceeded.
//
// The -strict flag disables //ghostlint:ignore suppressions and
// additionally reports stale directives that cover no finding; CI
// runs it against internal/bugdemo to prove the seeded bugs are still
// detected. -json emits the findings as a machine-readable object on
// stdout (the CI lint job turns it into per-file annotations).
// -budget fails the run when analysis wall time exceeds the given
// duration, keeping the lint step's latency honest. See
// docs/ANALYSIS.md for the analyzer catalogue and the annotation
// grammars.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ghostspec/internal/analysis"
)

func main() {
	strict := flag.Bool("strict", false, "ignore //ghostlint:ignore suppressions and report stale ones")
	verbose := flag.Bool("v", false, "report suppressed findings, loader warnings and type errors")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON on stdout")
	budget := flag.Duration("budget", 0, "fail (exit 3) if analysis exceeds this wall time")
	flag.Parse()

	start := time.Now()

	ld, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ghostlint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	var dirs []string
	for _, pat := range patterns {
		expanded, err := expand(ld.ModRoot, pat)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ghostlint:", err)
			os.Exit(2)
		}
		dirs = append(dirs, expanded...)
	}

	var requested []*analysis.Package
	for _, dir := range dirs {
		pkg, err := ld.LoadDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ghostlint: load %s: %v\n", dir, err)
			os.Exit(2)
		}
		requested = append(requested, pkg)
	}

	u := analysis.NewUniverse(ld)
	var kept, suppressed []analysis.Finding
	seen := make(map[string]bool)
	for _, pkg := range requested {
		if seen[pkg.Path] {
			continue
		}
		seen[pkg.Path] = true
		var all []analysis.Finding
		for _, a := range analysis.Analyzers() {
			all = append(all, a.Run(u, pkg)...)
		}
		if *strict {
			kept = append(kept, all...)
			// A suppression that covers no finding at all is dead weight
			// that would mask a future regression; -strict surfaces them.
			kept = append(kept, analysis.StaleSuppressions(pkg, all)...)
			continue
		}
		k, s := analysis.SplitSuppressed(pkg, all)
		kept = append(kept, k...)
		suppressed = append(suppressed, s...)
	}

	analysis.SortFindings(kept)
	analysis.SortFindings(suppressed)
	elapsed := time.Since(start)

	if *jsonOut {
		emitJSON(ld.ModRoot, kept, suppressed, len(requested), elapsed)
	} else {
		for _, f := range kept {
			fmt.Println(relativize(ld.ModRoot, f))
		}
	}
	if *verbose && !*jsonOut {
		for _, f := range suppressed {
			fmt.Fprintf(os.Stderr, "suppressed: %s\n", relativize(ld.ModRoot, f))
		}
		for _, w := range ld.Warnings {
			fmt.Fprintf(os.Stderr, "warning: %s\n", w)
		}
		for _, pkg := range u.Pkgs {
			for _, e := range pkg.TypeErrors {
				fmt.Fprintf(os.Stderr, "typecheck (%s): %v\n", pkg.Path, e)
			}
		}
	}
	if *budget > 0 && elapsed > *budget {
		fmt.Fprintf(os.Stderr, "ghostlint: analysis took %v, over the %v budget\n",
			elapsed.Round(time.Millisecond), *budget)
		os.Exit(3)
	}
	if len(kept) > 0 {
		fmt.Fprintf(os.Stderr, "ghostlint: %d finding(s)\n", len(kept))
		os.Exit(1)
	}
	if *verbose && !*jsonOut {
		fmt.Fprintf(os.Stderr, "ghostlint: clean (%d package(s) analyzed, %d finding(s) suppressed)\n",
			len(requested), len(suppressed))
	}
}

// jsonFinding is one finding in -json output, with a module-relative
// path.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func toJSON(modRoot string, fs []analysis.Finding) []jsonFinding {
	out := make([]jsonFinding, 0, len(fs))
	for _, f := range fs {
		file := f.Pos.Filename
		if rel, err := filepath.Rel(modRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		out = append(out, jsonFinding{
			File: file, Line: f.Pos.Line, Col: f.Pos.Column,
			Analyzer: f.Analyzer, Message: f.Message,
		})
	}
	return out
}

func emitJSON(modRoot string, kept, suppressed []analysis.Finding, pkgs int, elapsed time.Duration) {
	doc := struct {
		Findings   []jsonFinding `json:"findings"`
		Suppressed []jsonFinding `json:"suppressed"`
		Stats      struct {
			Packages   int   `json:"packages"`
			Findings   int   `json:"findings"`
			Suppressed int   `json:"suppressed"`
			ElapsedMS  int64 `json:"elapsed_ms"`
		} `json:"stats"`
	}{
		Findings:   toJSON(modRoot, kept),
		Suppressed: toJSON(modRoot, suppressed),
	}
	doc.Stats.Packages = pkgs
	doc.Stats.Findings = len(kept)
	doc.Stats.Suppressed = len(suppressed)
	doc.Stats.ElapsedMS = elapsed.Milliseconds()
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "ghostlint:", err)
		os.Exit(2)
	}
}

// expand turns one package pattern into package directories.
func expand(modRoot, pat string) ([]string, error) {
	if pat == "./..." || pat == "..." {
		return analysis.ModuleDirs(modRoot)
	}
	if base, ok := strings.CutSuffix(pat, "/..."); ok {
		root, err := filepath.Abs(base)
		if err != nil {
			return nil, err
		}
		sub, err := analysis.ModuleDirs(root)
		if err != nil {
			return nil, err
		}
		return sub, nil
	}
	abs, err := filepath.Abs(pat)
	if err != nil {
		return nil, err
	}
	return []string{abs}, nil
}

// relativize shortens file paths for readability.
func relativize(modRoot string, f analysis.Finding) string {
	if rel, err := filepath.Rel(modRoot, f.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		f.Pos.Filename = rel
	}
	return f.String()
}
