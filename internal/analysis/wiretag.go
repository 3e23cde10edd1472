package analysis

import (
	"go/ast"
	"reflect"
	"regexp"
)

// Wiretag encodes the wire vocabulary rule (DESIGN.md "Event plane",
// SNIPPETS.md agent-first convention): every struct that crosses a wire —
// /events and /metrics/snapshot bodies, BENCH_*.json scenario documents,
// replnet journal frames, the engine's journal records — carries
// an explicit snake_case `json:` tag on every exported field. Implicit
// field names drift with Go renames and break recorded documents and wire
// consumers silently; the reflective docs test
// (TestDocsStatsFieldNamesInDesign) covers only the ops model, while this
// analyzer covers the full closure.
//
// Scope: per-package root types (the frame/document entry points) plus
// every package-local struct reachable from them through fields, slices,
// maps, and pointers. Foreign fields (e.g. an ops.Snapshot inside a
// loadgen document) are checked when their defining package is analyzed.
var Wiretag = &Analyzer{
	Name: "wiretag",
	Doc: "wire-bound structs carry explicit snake_case json tags on every exported field\n\n" +
		"Walks the per-package wire roots (ops events and snapshots, recommend journal/snapshot-page shapes, replnet frames, " +
		"coordinator lease wire, loadgen BENCH documents) and their package-local field closure; flags exported " +
		"fields with no json tag or with a non-snake_case name.",
	Run: runWiretag,
}

// wireRoots names each package's wire entry points. "*" means every
// exported struct in the package is wire vocabulary (internal/ops exists
// solely to be serialized).
var wireRoots = map[string][]string{
	opsPath:                         {"*"},
	recommendPath:                   {"JournalRecord", "TailResult", "SnapshotPage", "OwnershipMap"},
	replnetPath:                     {"tailRequest", "snapPageRequest", "setProfilesRequest", "observeRequest", "purchaseRequest", "OwnerMapInfo"},
	"agentrec/internal/coordinator": {"LeaseRequest", "LeaseGrant"},
	"agentrec/internal/loadgen":     {"ScenarioResult", "Scenario"},
}

var snakeCase = regexp.MustCompile(`^[a-z0-9_]+$`)

func runWiretag(pass *Pass) error {
	roots, ok := wireRoots[pass.Pkg.Path()]
	if !ok {
		return nil
	}

	// Collect the package's struct type declarations by name. A struct
	// whose declaration line carries a justified wiretag allow is excluded
	// wholesale — the way to say "this exported ops struct is in-process
	// config, not wire vocabulary".
	structDecls := make(map[string]*ast.StructType)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok && !pass.Allowed(ts.Name.Pos()) {
				structDecls[ts.Name.Name] = st
			}
			return true
		})
	}

	// Seed the worklist from the roots, then close over package-local
	// struct-typed fields.
	seen := make(map[string]bool)
	var work []string
	add := func(name string) {
		if !seen[name] && structDecls[name] != nil {
			seen[name] = true
			work = append(work, name)
		}
	}
	if len(roots) == 1 && roots[0] == "*" {
		for name := range structDecls {
			if ast.IsExported(name) {
				add(name)
			}
		}
	} else {
		for _, r := range roots {
			if structDecls[r] == nil {
				pass.Reportf(pass.Files[0].Pos(),
					"wiretag root %q is not a struct in %s: update the analyzer's wireRoots table to match the wire surface",
					r, pass.Pkg.Path())
				continue
			}
			add(r)
		}
	}

	for len(work) > 0 {
		name := work[0]
		work = work[1:]
		st := structDecls[name]
		for _, field := range st.Fields.List {
			// Pull package-local named structs into the closure.
			for _, local := range localStructNames(pass, field.Type) {
				add(local)
			}
			checkFieldTags(pass, name, field)
		}
	}
	return nil
}

// checkFieldTags verifies one field declaration's json tag.
func checkFieldTags(pass *Pass, structName string, field *ast.Field) {
	if len(field.Names) == 0 {
		// Embedded field: its own fields are checked via the closure (or
		// in its defining package); the embedding itself inlines.
		return
	}
	for _, name := range field.Names {
		if !name.IsExported() {
			continue
		}
		if field.Tag == nil {
			pass.Reportf(name.Pos(),
				"wire struct %s: exported field %s has no json tag — the implicit name %q breaks wire consumers on rename; tag it snake_case (or `json:\"-\"`)",
				structName, name.Name, name.Name)
			continue
		}
		tag, _ := reflect.StructTag(field.Tag.Value[1 : len(field.Tag.Value)-1]).Lookup("json")
		if tag == "" {
			pass.Reportf(name.Pos(),
				"wire struct %s: exported field %s has a struct tag but no json key — tag it snake_case (or `json:\"-\"`)",
				structName, name.Name)
			continue
		}
		jsonName := tag
		if i := indexByte(jsonName, ','); i >= 0 {
			jsonName = jsonName[:i]
		}
		if jsonName == "-" {
			continue
		}
		if jsonName == "" || !snakeCase.MatchString(jsonName) {
			pass.Reportf(name.Pos(),
				"wire struct %s: field %s's json name %q is not snake_case — the wire vocabulary is lowercase snake_case (agent-first, units in the name)",
				structName, name.Name, jsonName)
		}
	}
}

// localStructNames returns the names of package-local named types reached
// by t (through pointers, slices, arrays, and maps).
func localStructNames(pass *Pass, t ast.Expr) []string {
	var out []string
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[e]; obj != nil && pkgPathIs(obj.Pkg(), pass.Pkg.Path()) {
				out = append(out, e.Name)
			}
		case *ast.StarExpr:
			walk(e.X)
		case *ast.ArrayType:
			walk(e.Elt)
		case *ast.MapType:
			walk(e.Key)
			walk(e.Value)
		}
	}
	walk(t)
	return out
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}
