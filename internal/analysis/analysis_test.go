package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func TestLockorderFixtures(t *testing.T)   { runFixtures(t, Lockorder) }
func TestDeterminismFixtures(t *testing.T) { runFixtures(t, Determinism) }
func TestBuspublishFixtures(t *testing.T)  { runFixtures(t, Buspublish) }
func TestWiretagFixtures(t *testing.T)     { runFixtures(t, Wiretag) }
func TestErrflowFixtures(t *testing.T)     { runFixtures(t, Errflow) }

// TestSuiteIsClean is the repo gate in test form: the full analyzer suite
// over the whole module must report nothing. CI runs the same check through
// `go vet -vettool`; this keeps `go test ./...` sufficient locally.
func TestSuiteIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("expected to load the whole module, got %d packages", len(pkgs))
	}
	for _, pkg := range pkgs {
		diags, err := RunAnalyzers(All(), pkg)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s [%s]", pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
		}
	}
}

// TestAllowGrammar pins the suppression comment contract: a justified
// allow suppresses exactly its analyzer on its line, and a bare allow is
// itself a finding.
func TestAllowGrammar(t *testing.T) {
	src := `package p

//agentlint:allow errflow
var a int

//agentlint:allow errflow -- has a reason
var b int
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "allow.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var got []Diagnostic
	CheckAllowComments(fset, []*ast.File{f}, func(d Diagnostic) { got = append(got, d) })
	if len(got) != 1 {
		t.Fatalf("expected exactly the bare allow to be reported, got %d diagnostics", len(got))
	}
	if got[0].Analyzer != "allow" || !strings.Contains(got[0].Message, "needs a justification") {
		t.Fatalf("unexpected diagnostic: %+v", got[0])
	}
	if fset.Position(got[0].Pos).Line != 3 {
		t.Fatalf("bare allow reported at line %d, want 3", fset.Position(got[0].Pos).Line)
	}
}

// TestAnalyzerNamesAreStable pins the suite's names and order: docs, allow
// comments, and the DESIGN.md table all key on them.
func TestAnalyzerNamesAreStable(t *testing.T) {
	want := []string{"lockorder", "determinism", "buspublish", "wiretag", "errflow"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("%s: missing Doc or Run", a.Name)
		}
	}
}
