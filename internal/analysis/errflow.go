package analysis

import (
	"go/ast"
	"go/types"
)

// Errflow encodes the durability contract's first rule: an acknowledged
// write is durable, and an error means it is NOT — so the error returns of
// the community write API (SetProfile, SetProfiles, Observe, RecordPurchase
// — on the Engine, on Writer implementations, and on the Router), of the
// kvstore accessors, and of the ownership fence must never be silently
// discarded. A dropped SetProfile error under persistence is a write the
// caller believes durable and the WAL never saw; a dropped Fence error is a
// stale-epoch write acked by a deposed owner.
//
// Statement-position calls (`e.SetProfile(p)` as its own statement, or in
// a go/defer) are flagged. An explicit `_ = e.SetProfile(p)` is treated as
// a deliberate, visible discard and allowed — the reviewer can see it.
var Errflow = &Analyzer{
	Name: "errflow",
	Doc: "error returns of the write API, kvstore accessors, and the ownership fence must be used\n\n" +
		"Flags statement-position calls that discard the error result of SetProfile/SetProfiles/Observe/" +
		"RecordPurchase (any Writer implementation), exported kvstore.Store methods, and OwnershipTable.Fence. " +
		"An explicit `_ =` discard is visible to reviewers and allowed.",
	Run: runErrflow,
}

// writeAPINames are the community write methods; they are flagged on any
// receiver (Engine, Router, OwnedWriter, replnet.Writer, the Writer
// interface) — every implementation shares the contract.
var writeAPINames = map[string]bool{
	"SetProfile":     true,
	"SetProfiles":    true,
	"Observe":        true,
	"RecordPurchase": true,
}

func runErrflow(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch st := n.(type) {
			case *ast.ExprStmt:
				if c, ok := st.X.(*ast.CallExpr); ok {
					call = c
				}
			case *ast.GoStmt:
				call = st.Call
			case *ast.DeferStmt:
				call = st.Call
			}
			if call == nil {
				return true
			}
			f := calleeFunc(pass.TypesInfo, call)
			if f == nil || !lastResultIsError(f) {
				return true
			}
			recv := recvNamed(f)
			switch {
			case writeAPINames[f.Name()] && recv != nil:
				pass.Reportf(call.Pos(),
					"error result of %s.%s discarded: under persistence a write error means the WAL never saw the write — handle it or discard explicitly with `_ =`",
					recv.Obj().Name(), f.Name())
			case isKvstoreAccessor(f, recv):
				pass.Reportf(call.Pos(),
					"error result of kvstore Store.%s discarded: a store error is a durability violation — handle it or discard explicitly with `_ =`",
					f.Name())
			case isMethodOn(f, recommendPath, "OwnershipTable", "Fence"):
				pass.Reportf(call.Pos(),
					"error result of OwnershipTable.Fence discarded: ignoring the fence verdict is exactly the split-brain the epoch exists to prevent")
			}
			return true
		})
	}
	return nil
}

// isKvstoreAccessor matches exported error-returning kvstore.Store methods
// other than Close (a deferred Close discard is idiomatic teardown; the
// engine's sticky-error path covers real close failures).
func isKvstoreAccessor(f *types.Func, recv *types.Named) bool {
	if recv == nil || f.Name() == "Close" || !ast.IsExported(f.Name()) {
		return false
	}
	obj := recv.Obj()
	return obj.Name() == "Store" && pkgPathIs(obj.Pkg(), kvstorePath)
}
