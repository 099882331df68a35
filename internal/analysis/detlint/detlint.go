// Package detlint is a suite of static analyzers that prove the engine's
// determinism invariants at compile time. Every guarantee the reproduction
// makes — bit-identical committed orders across shard counts, lookahead
// modes and fault plans — rests on coding invariants (no wall clock in
// engine paths, all post-Init daemon state through journaled setters, no
// unsorted map iteration feeding committed order) that golden tests only
// catch after the fact. detlint turns each of those invariants into a
// checked claim. (Paired Retain/Release on pooled messages is not one of
// them: faults.Check's PoolLive ≡ HeldMessages oracle proves it at run
// time on every golden, which a per-function heuristic could not match.)
//
// The suite ships four analyzers, each in its own file:
//
//   - wallclock: forbids time.Now/Since/Sleep/timers in engine packages
//     (internal/experiments is allowlisted: fig7 measures real wall time
//     by design).
//   - detrand: forbids math/rand and crypto/rand outside internal/rng,
//     which exists precisely so random streams are stable across Go
//     releases.
//   - maprange: flags range over a map in engine packages unless the loop
//     body only accumulates commutatively (sum +=, set inserts, min/max
//     folds) or the collected keys are sorted before use.
//   - journalbypass: within the daemons, flags direct writes to
//     //detlint:checkpointable state fields from any function that is not
//     a journaling setter (one that records an undo entry), an Init, or a
//     method of the state type itself (the rewind/clone machinery).
//
// Run it locally with:
//
//	go run ./cmd/detlint ./...
//
// Suppression policy: a diagnostic is suppressed by an inline directive
// comment on the flagged line or the line directly above it, using the
// analyzer's verb and a mandatory justification:
//
//	//detlint:ordered <why>     (maprange)
//	//detlint:journaled <why>   (journalbypass)
//	//detlint:wallclock <why>   (wallclock)
//	//detlint:detrand <why>     (detrand)
//
// A directive with an empty justification does not suppress — it is itself
// reported, so "zero diagnostics" always means "zero unjustified
// suppressions" too.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) so the analyzers could be ported to a real
// multichecker wholesale; the container this repo builds in has no module
// proxy access, so the small compatible core lives here and the driver
// loads type information from `go list -export` export data instead of
// go/packages.
package detlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// An Analyzer describes one invariant check. The shape is a compatible
// subset of golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	Name string // short identifier, printed in diagnostics
	Doc  string // one-paragraph description
	// Verb is the suppression directive verb: //detlint:<Verb> <why>
	// acknowledges and silences one diagnostic of this analyzer.
	Verb string
	Run  func(*Pass) error
}

// A Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass provides one analyzer with one type-checked package and a sink
// for diagnostics. The shape is a compatible subset of analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags      *[]Diagnostic
	directives map[string][]directive // file name -> directives, lazily built
}

// directive is one parsed //detlint:<verb> <why> comment.
type directive struct {
	line int
	verb string
	why  string
}

var directiveRE = regexp.MustCompile(`^//detlint:(\w+)\s*(.*)$`)

// parseDirectives extracts the detlint directives of every comment in f.
func parseDirectives(fset *token.FileSet, f *ast.File) []directive {
	var ds []directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := directiveRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			ds = append(ds, directive{
				line: fset.Position(c.Pos()).Line,
				verb: m[1],
				why:  strings.TrimSpace(m[2]),
			})
		}
	}
	return ds
}

// Reportf reports a diagnostic at pos unless a matching suppression
// directive with a non-empty justification covers it. A matching directive
// with an empty justification is converted into its own diagnostic: the
// suppression policy requires a recorded rationale.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.directives == nil {
		p.directives = make(map[string][]directive)
		for _, f := range p.Files {
			name := p.Fset.Position(f.Pos()).Filename
			p.directives[name] = parseDirectives(p.Fset, f)
		}
	}
	for _, d := range p.directives[position.Filename] {
		if d.verb != p.Analyzer.Verb {
			continue
		}
		if d.line != position.Line && d.line != position.Line-1 {
			continue
		}
		if d.why == "" {
			*p.diags = append(*p.diags, Diagnostic{
				Pos:      position,
				Analyzer: p.Analyzer.Name,
				Message: fmt.Sprintf("//detlint:%s suppression requires a non-empty justification",
					p.Analyzer.Verb),
			})
		}
		return // acknowledged (justified or reported as unjustified)
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePath is the module all path-gated rules are anchored to.
const ModulePath = "defined"

// EnginePackages lists the determinism-critical packages: the ones whose
// execution must be a pure function of (topology, seed, plan). Entries
// ending in "/" cover the whole subtree. wallclock and maprange gate on
// this set.
var EnginePackages = []string{
	ModulePath + "/internal/eventq",
	ModulePath + "/internal/netsim",
	ModulePath + "/internal/rollback",
	ModulePath + "/internal/routing/", // api, ospf, rip, bgp, routecache
	ModulePath + "/internal/lockstep",
	ModulePath + "/internal/shard",
	ModulePath + "/internal/faults",
	ModulePath + "/internal/journal",
	ModulePath + "/internal/history",
	ModulePath + "/internal/msg",
	ModulePath + "/internal/vtime",
	ModulePath + "/internal/topology",
	ModulePath + "/internal/scenario",
	ModulePath + "/examples/", // the README's entry point prints what these run
}

// IsEnginePackage reports whether path is in the determinism-critical set.
func IsEnginePackage(path string) bool {
	for _, p := range EnginePackages {
		if strings.HasSuffix(p, "/") {
			if strings.HasPrefix(path, p) {
				return true
			}
		} else if path == p {
			return true
		}
	}
	return false
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		WallclockAnalyzer,
		DetrandAnalyzer,
		MaprangeAnalyzer,
		JournalbypassAnalyzer,
	}
}

// funcOf walks up via the position-sorted declaration list to find the
// function declaration enclosing pos in file f, or nil.
func funcOf(f *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}

// calleeFunc resolves the *types.Func a call expression invokes, or nil
// (builtin calls, function-typed variables, type conversions).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// namedOf strips pointers and aliases from t and returns the underlying
// named type, or nil. Generic instantiations resolve to their origin.
func namedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return n.Origin()
}
