package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
)

// Determinism guards the byte-identical surfaces: replicas must produce
// byte-identical WAL files (TestReplicatedWALByteIdentical,
// TestCompactDeterministic), snapshot pages must cut identically on every
// server (snappage's stable key order), a purchase's time must be the
// caller's on owner and follower alike (extensions.go: the one purchase
// write, and the Trending window), and scenario traffic must replay
// byte-equal across runs (workload determinism property tests). In
// the files that implement those surfaces, three things are banned:
//
//   - time.Now — wall-clock values diverge across replicas and runs;
//   - the global math/rand[/v2] source — unseeded and process-global
//     (explicitly seeded rand.New(rand.NewPCG(seed, ...)) is fine: that is
//     how the deterministic surfaces are built);
//   - ranging over a map while serializing inside the loop — map iteration
//     order is randomized per run, so any bytes written under it diverge.
//     Collect-then-sort loops are fine: only loops whose body reaches a
//     serialization sink (Marshal/Encode/Write/Fprint/emit) are flagged.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "no wall clock, global rand, or map-ordered serialization in the byte-identical packages\n\n" +
		"Scoped to the deterministic writer files (workload traffic, kvstore, recommend " +
		"snapshot paging and purchase times): flags time.Now, global math/rand functions, and map-range loops that serialize in " +
		"iteration order instead of sorting keys first.",
	Run: runDeterminism,
}

// deterministicFiles scopes the analyzer: package import path -> file base
// names that must stay byte-deterministic. An empty list means every file
// in the package.
var deterministicFiles = map[string][]string{
	"agentrec/internal/workload": {"traffic.go"},
	kvstorePath:                  {},
	recommendPath:                {"snappage.go", "snapshot.go", "extensions.go"},
}

// sinkCall matches serialization sinks: a map-range loop whose body calls
// one of these is writing bytes in map order.
var sinkCall = regexp.MustCompile(`^(Marshal|MarshalIndent|Encode|Fprint|Fprintf|Fprintln|Write|WriteString|WriteByte|WriteRune|emit)$`)

func runDeterminism(pass *Pass) error {
	scoped, ok := deterministicFiles[pass.Pkg.Path()]
	if !ok {
		return nil
	}
	inScope := func(pos ast.Node) bool {
		if len(scoped) == 0 {
			return true
		}
		base := fileBase(pass.Fset, pos.Pos())
		for _, f := range scoped {
			if base == f {
				return true
			}
		}
		return false
	}
	for _, file := range pass.Files {
		if !inScope(file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterministicCall(pass, n)
			case *ast.RangeStmt:
				checkMapRangeSerialization(pass, n)
			}
			return true
		})
	}
	return nil
}

// randConstructors are math/rand[/v2] functions that build explicitly
// seeded generators — the deterministic pattern, always allowed.
var randConstructors = map[string]bool{
	"New": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true, "NewSource": true,
}

func checkDeterministicCall(pass *Pass, call *ast.CallExpr) {
	f := calleeFunc(pass.TypesInfo, call)
	if f == nil || f.Pkg() == nil {
		return
	}
	switch f.Pkg().Path() {
	case "time":
		if f.Name() == "Now" && recvNamed(f) == nil {
			pass.Reportf(call.Pos(),
				"time.Now in a byte-deterministic writer: wall-clock values diverge across replicas and runs — take the timestamp outside the deterministic surface or derive it from the input")
		}
	case "math/rand", "math/rand/v2":
		if recvNamed(f) == nil && !randConstructors[f.Name()] {
			pass.Reportf(call.Pos(),
				"global math/rand source (%s.%s) in a byte-deterministic writer: use an explicitly seeded generator (rand.New(rand.NewPCG(seed, ...)))",
				f.Pkg().Name(), f.Name())
		}
	}
}

// checkMapRangeSerialization flags `for k := range m { ... sink ... }`
// where m is a map and the loop body reaches a serialization sink.
func checkMapRangeSerialization(pass *Pass, rng *ast.RangeStmt) {
	t := pass.TypesInfo.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	var sink *ast.CallExpr
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		case *ast.Ident:
			name = fun.Name
		}
		if sinkCall.MatchString(name) {
			sink = call
		}
		return sink == nil
	})
	if sink != nil {
		pass.Reportf(rng.Pos(),
			"map iterated in randomized order while serializing (%s inside the loop): bytes written here diverge across replicas — collect the keys, sort, then write",
			exprString(sink.Fun))
	}
}
