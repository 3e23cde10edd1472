// Package analysis is the repo's static-analysis suite: a small
// go/analysis-style framework (built on the standard library alone — the
// container has no golang.org/x/tools) plus the five analyzers that encode
// the platform's hardest invariants at vet time:
//
//   - lockorder: never nested shard locks, no lock held across a Persister
//     fsync.
//   - determinism: no wall clock, global rand, or unsorted map iteration
//     near the byte-identical wire/WAL writers.
//   - buspublish: nothing reachable from ops.Bus.Publish blocks, and every
//     event-hook call site is nil-checked.
//   - wiretag: wire-bound structs carry explicit snake_case json tags.
//   - errflow: error returns of the write API, the kvstore accessors, and
//     the fence are never silently discarded.
//
// The suite ships as cmd/agentlint — a multichecker usable standalone
// (`agentlint ./...`) and as a `go vet -vettool`. Runtime tests verify the
// same invariants dynamically; the analyzers catch violations before any
// chaos test runs. See DESIGN.md "Static analysis".
//
// # Suppressions
//
// A diagnostic can be suppressed only with an in-source justification:
//
//	//agentlint:allow <analyzer> -- <reason>
//
// placed on the flagged line or in the comment block immediately above it.
// The reason is mandatory; an allow comment without one is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Import paths of the packages the analyzers key on.
const (
	recommendPath = "agentrec/internal/recommend"
	replnetPath   = "agentrec/internal/replnet"
	opsPath       = "agentrec/internal/ops"
	kvstorePath   = "agentrec/internal/kvstore"
	platformPath  = "agentrec/internal/platform"
)

// Analyzer is one named invariant check. Run inspects a single type-checked
// package and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, allow comments, and
	// DESIGN.md's analyzer table.
	Name string
	// Doc is the invariant the analyzer encodes. The first line is the
	// one-line summary `agentlint -list` prints.
	Doc string
	// Run analyzes one package.
	Run func(*Pass) error
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report receives every diagnostic that survives suppression.
	Report func(Diagnostic)

	allows allowIndex
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf reports a diagnostic at pos unless an allow comment suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.allows == nil {
		p.allows = buildAllowIndex(p.Fset, p.Files)
	}
	position := p.Fset.Position(pos)
	if p.allows.covers(p.Analyzer.Name, position.Filename, position.Line) {
		return
	}
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Allowed reports whether an allow directive for the running analyzer
// covers pos. Analyzers use this for declaration-level suppression — e.g.
// wiretag skipping a whole struct whose type declaration carries a
// justified allow — where per-diagnostic line matching would force one
// comment per field.
func (p *Pass) Allowed(pos token.Pos) bool {
	if p.allows == nil {
		p.allows = buildAllowIndex(p.Fset, p.Files)
	}
	position := p.Fset.Position(pos)
	return p.allows.covers(p.Analyzer.Name, position.Filename, position.Line)
}

// allowRe matches the suppression comment grammar. The reason clause after
// " -- " is mandatory: a suppression must say why it is sound.
var allowRe = regexp.MustCompile(`^//agentlint:allow\s+([a-z]+)\s+--\s+\S`)

// bareAllowRe catches allow comments missing their justification.
var bareAllowRe = regexp.MustCompile(`^//agentlint:allow\b`)

// allowIndex maps file -> line -> set of analyzer names suppressed there.
type allowIndex map[string]map[int]map[string]bool

func (ai allowIndex) covers(analyzer, file string, line int) bool {
	return ai[file][line][analyzer]
}

// buildAllowIndex scans every comment for allow directives. A directive
// suppresses the named analyzer on the directive's own line and, when the
// comment group immediately precedes a line of code, on that next line —
// so both trailing comments and comments-above work.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) allowIndex {
	ai := make(allowIndex)
	add := func(file string, line int, name string) {
		if ai[file] == nil {
			ai[file] = make(map[int]map[string]bool)
		}
		if ai[file][line] == nil {
			ai[file][line] = make(map[string]bool)
		}
		ai[file][line][name] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				end := fset.Position(cg.End())
				add(pos.Filename, pos.Line, m[1])
				// Cover the first code line after the comment group.
				add(pos.Filename, end.Line+1, m[1])
			}
		}
	}
	return ai
}

// CheckAllowComments reports allow directives that lack the mandatory
// justification clause. Called once per package by the runner so a bare
// suppression cannot silently disable an analyzer.
func CheckAllowComments(fset *token.FileSet, files []*ast.File, report func(Diagnostic)) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if bareAllowRe.MatchString(c.Text) && !allowRe.MatchString(c.Text) {
					report(Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "allow",
						Message:  "agentlint:allow needs a justification: `//agentlint:allow <analyzer> -- <reason>`",
					})
				}
			}
		}
	}
}

// RunAnalyzers runs every analyzer over pkg and returns the findings in
// position order.
func RunAnalyzers(analyzers []*Analyzer, pkg *Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	CheckAllowComments(pkg.Fset, pkg.Files, report)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Report:    report,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// --- shared type-matching helpers the analyzers lean on ---

// pkgPathIs reports whether pkg is the (module-qualified) import path. Test
// fixtures type-check under the real import paths, so exact matching keeps
// scope rules honest in both worlds.
func pkgPathIs(pkg *types.Package, path string) bool {
	return pkg != nil && pkg.Path() == path
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (method or function), or nil for builtins, conversions, and calls through
// function-typed variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call: time.Now, json.Marshal, ...
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// recvNamed returns the named type of f's receiver with pointers stripped,
// or nil for plain functions.
func recvNamed(f *types.Func) *types.Named {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isMethodOn reports whether f is a method named name on the named type
// typeName declared in package pkgPath. Works for both concrete methods and
// interface methods.
func isMethodOn(f *types.Func, pkgPath, typeName, name string) bool {
	if f == nil || f.Name() != name {
		return false
	}
	named := recvNamed(f)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && pkgPathIs(obj.Pkg(), pkgPath)
}

// lastResultIsError reports whether f's final result is the error type.
func lastResultIsError(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// exprString renders an expression for matching and messages (types-aware
// canonical form, e.g. "e.events").
func exprString(e ast.Expr) string {
	return types.ExprString(e)
}

// fileBase returns the base name of the file containing pos.
func fileBase(fset *token.FileSet, pos token.Pos) string {
	name := fset.Position(pos).Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name
}
