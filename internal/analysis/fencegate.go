package analysis

import (
	"go/ast"
)

// Fencegate encodes the ownership invariant of DESIGN.md "Fencing at every
// layer": a shard mutation is admitted by ownership inside the engine's
// write primitive, with the shard lock held, and the only ways in from
// outside the engine are the gated writers — OwnedWriter, the Router's own
// slot, the Replicator's apply. The Engine's public write API admits every
// write (it serves the single-engine deployments that have no table), so in
// internal/recommend and internal/replnet no exported surface other than an
// Engine method may call it. A surface that checks OwnershipTable.Fence and
// then calls the public API is the check-then-act shape the in-lock
// admission replaced, and is a finding like any other ungated call.
//
// The runtime complements are TestOwnedWriterFencesRoutedWrites, the
// held-lock admission tests (admission_test.go) and replnet's fence_test.
var Fencegate = &Analyzer{
	Name: "fencegate",
	Doc: "write surfaces in recommend/replnet write through a gated writer, never the ungated Engine write API\n\n" +
		"Flags exported functions and methods (and the closures inside them) in recommend/replnet, other than Engine " +
		"methods, that call the Engine's public write API (SetProfile, SetProfiles, RecordPurchase, RecordPurchaseAt), " +
		"which admits every write. A Fence check before the call does not count: ownership is admitted under the shard " +
		"lock, by writing through OwnedWriter or a Router.",
	Run: runFencegate,
}

const (
	recommendPath = "agentrec/internal/recommend"
	replnetPath   = "agentrec/internal/replnet"
	opsPath       = "agentrec/internal/ops"
	kvstorePath   = "agentrec/internal/kvstore"
	platformPath  = "agentrec/internal/platform"
)

// engineMutators are the *Engine methods that mutate shard state without an
// ownership admission.
var engineMutators = map[string]bool{
	"SetProfile":       true,
	"SetProfiles":      true,
	"RecordPurchase":   true,
	"RecordPurchaseAt": true,
}

func runFencegate(pass *Pass) error {
	path := pass.Pkg.Path()
	if path != recommendPath && path != replnetPath {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if path == recommendPath && receiverTypeName(fd) == "Engine" {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				f := calleeFunc(pass.TypesInfo, call)
				if f == nil || !engineMutators[f.Name()] {
					return true
				}
				if named := recvNamed(f); named != nil &&
					named.Obj().Name() == "Engine" && pkgPathIs(named.Obj().Pkg(), recommendPath) {
					pass.Reportf(call.Pos(),
						"ungated engine write in exported surface %s: %s admits every write — write through OwnedWriter or a Router, whose ownership rule the engine checks under the shard lock",
						fd.Name.Name, exprString(call.Fun))
				}
				return true
			})
		}
	}
	return nil
}

// receiverTypeName returns the base type name of fd's receiver ("" for
// plain functions).
func receiverTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Generic receivers (T[P]) don't occur here but strip them anyway.
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
