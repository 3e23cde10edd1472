package analysis

import (
	"go/ast"
	"go/types"
)

// Lockorder encodes the engine's lock-order invariant (recommend package
// godoc "Invariants"): a shard's mutex is never nested with another shard's
// — every cross-shard read takes one shard lock at a time — and no lock is
// held across a Persister fsync barrier (Store.Sync / Store.Compact), whose
// latency is unbounded.
//
// The check is an intra-function linear scan: it tracks which shard and
// other mutexes are held at each statement (deferred unlocks hold to
// function end; a branch that unlocks and returns does not leak its effect
// past the branch) and flags
//
//   - a shard lock acquired while another shard lock is held, and
//   - a Sync/Compact fsync call while any tracked lock is held.
//
// The runtime complement is the -race soak suite; the analyzer catches the
// deadlock shapes the soak only hits probabilistically.
var Lockorder = &Analyzer{
	Name: "lockorder",
	Doc: "never nested shard locks, no lock held across a Persister fsync\n\n" +
		"Linear intra-function scan over internal/recommend tracking held mutexes; flags a shard lock taken " +
		"under another and Store.Sync/Compact calls under any held lock.",
	Run: runLockorder,
}

// lockKind classifies a tracked mutex by its owner type.
type lockKind int

const (
	lockShard lockKind = iota
	lockOther
)

// heldLock is one acquired mutex, keyed by the canonical source expression
// of its owner (e.g. "sh" in sh.mu.Lock()).
type heldLock struct {
	kind lockKind
	key  string
}

func runLockorder(pass *Pass) error {
	if pass.Pkg.Path() != recommendPath {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			s := &lockScan{pass: pass}
			s.block(fd.Body.List, nil)
			return true
		})
	}
	return nil
}

type lockScan struct {
	pass *Pass
}

// block scans stmts sequentially, threading the held-lock set through.
// Returns the set held after the block, or held unchanged if the block
// terminates (return/panic) — the caller's fall-through path never ran it.
func (s *lockScan) block(stmts []ast.Stmt, held []heldLock) []heldLock {
	for _, st := range stmts {
		held = s.stmt(st, held)
	}
	return held
}

func (s *lockScan) stmt(st ast.Stmt, held []heldLock) []heldLock {
	switch st := st.(type) {
	case *ast.ExprStmt:
		return s.expr(st.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock releases at return: for ordering purposes the
		// lock is held for the rest of the function, so ignore the release
		// but still scan the call for acquisitions (rare but possible).
		if isUnlockCall(s.pass, st.Call) == nil {
			return s.expr(st.Call, held)
		}
		return held
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			held = s.expr(rhs, held)
		}
		return held
	case *ast.IfStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
		}
		held = s.expr(st.Cond, held)
		bodyHeld := s.block(st.Body.List, append([]heldLock(nil), held...))
		if !terminates(st.Body) {
			held = bodyHeld
		}
		if st.Else != nil {
			switch e := st.Else.(type) {
			case *ast.BlockStmt:
				elseHeld := s.block(e.List, append([]heldLock(nil), held...))
				if !terminates(e) {
					held = elseHeld
				}
			case *ast.IfStmt:
				held = s.stmt(e, held)
			}
		}
		return held
	case *ast.ForStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
		}
		return s.block(st.Body.List, held)
	case *ast.RangeStmt:
		return s.block(st.Body.List, held)
	case *ast.BlockStmt:
		return s.block(st.List, held)
	case *ast.SwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.block(cc.Body, append([]heldLock(nil), held...))
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.block(cc.Body, append([]heldLock(nil), held...))
			}
		}
		return held
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				s.block(cc.Body, append([]heldLock(nil), held...))
			}
		}
		return held
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			held = s.expr(r, held)
		}
		return held
	case *ast.GoStmt:
		// The goroutine runs on its own stack with no inherited locks.
		s.exprInGoroutine(st.Call)
		return held
	default:
		return held
	}
}

// expr scans e for lock transitions and fsync-under-lock violations,
// returning the updated held set.
func (s *lockScan) expr(e ast.Expr, held []heldLock) []heldLock {
	var out []heldLock = held
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			// A closure body is its own acquisition context; scan it with
			// the current held set (closures here run synchronously or are
			// handed to helpers while the locks remain held).
			s.block(lit.Body.List, append([]heldLock(nil), out...))
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if hl := isLockCall(s.pass, call); hl != nil {
			out = s.acquire(call, *hl, out)
			return true
		}
		if key := isUnlockCall(s.pass, call); key != nil {
			out = release(out, *key)
			return true
		}
		if name := isFsyncCall(s.pass, call); name != "" && len(out) > 0 {
			s.pass.Reportf(call.Pos(),
				"%s (an fsync barrier with unbounded latency) called while holding %s — release the lock before the barrier or allowlist with a justification",
				name, describeHeld(out))
		}
		return true
	})
	return out
}

// exprInGoroutine scans a go-statement's call with an empty held set.
func (s *lockScan) exprInGoroutine(call *ast.CallExpr) {
	s.expr(call, nil)
}

func (s *lockScan) acquire(call *ast.CallExpr, hl heldLock, held []heldLock) []heldLock {
	if hl.kind == lockShard {
		for _, h := range held {
			if h.kind == lockShard {
				s.pass.Reportf(call.Pos(),
					"shard lock %s acquired while shard lock %s is held — the engine never nests shard locks (deadlock by lock-order cycle)",
					hl.key, h.key)
			}
		}
	}
	return append(held, hl)
}

func release(held []heldLock, key string) []heldLock {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].key == key {
			return append(append([]heldLock(nil), held[:i]...), held[i+1:]...)
		}
	}
	return held
}

// isLockCall matches X.mu.Lock() / X.mu.RLock() and the engine's
// lockShardW(sh, admit) helper, classifying the owner X.
func isLockCall(pass *Pass, call *ast.CallExpr) *heldLock {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		owner, kind := mutexOwner(pass, sel.X)
		if owner == "" {
			return nil
		}
		return &heldLock{kind: kind, key: owner}
	case "lockShardW":
		// e.lockShardW(sh, admit) acquires sh.mu for writing.
		if f := calleeFunc(pass.TypesInfo, call); f != nil &&
			isMethodOn(f, recommendPath, "Engine", "lockShardW") && len(call.Args) == 2 {
			return &heldLock{kind: lockShard, key: exprString(call.Args[0])}
		}
	}
	return nil
}

// isUnlockCall matches X.mu.Unlock()/RUnlock(), returning the owner key.
func isUnlockCall(pass *Pass, call *ast.CallExpr) *string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Unlock" && sel.Sel.Name != "RUnlock") {
		return nil
	}
	owner, _ := mutexOwner(pass, sel.X)
	if owner == "" {
		return nil
	}
	return &owner
}

// mutexOwner resolves the receiver of a mutex method: for `sh.mu` it
// returns ("sh", lockShard) based on sh's type; for a bare mutex variable,
// or a shard's mutex under another name (sh.build, which serializes view
// builders and is taken before sh.mu), it returns the expression itself as
// an lockOther owner.
func mutexOwner(pass *Pass, recv ast.Expr) (string, lockKind) {
	recv = ast.Unparen(recv)
	if !isMutexType(pass.TypesInfo.Types[recv].Type) {
		return "", lockOther
	}
	if sel, ok := recv.(*ast.SelectorExpr); ok && sel.Sel.Name == "mu" {
		owner := sel.X
		kind := lockOther
		if t := pass.TypesInfo.Types[owner].Type; t != nil && baseTypeName(t) == "shard" {
			kind = lockShard
		}
		return exprString(owner), kind
	}
	return exprString(recv), lockOther
}

func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return pkgPathIs(obj.Pkg(), "sync") && (obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

func baseTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// isFsyncCall matches the Persister fsync barriers: methods named Sync or
// Compact on kvstore.Store or on the recommend Persister interface.
func isFsyncCall(pass *Pass, call *ast.CallExpr) string {
	f := calleeFunc(pass.TypesInfo, call)
	if f == nil || (f.Name() != "Sync" && f.Name() != "Compact") {
		return ""
	}
	named := recvNamed(f)
	if named == nil {
		return ""
	}
	obj := named.Obj()
	if (obj.Name() == "Store" && pkgPathIs(obj.Pkg(), kvstorePath)) ||
		(obj.Name() == "Persister" && pkgPathIs(obj.Pkg(), recommendPath)) {
		return obj.Name() + "." + f.Name()
	}
	return ""
}

// describeHeld renders the held-lock set for a diagnostic.
func describeHeld(held []heldLock) string {
	out := ""
	for i, h := range held {
		if i > 0 {
			out += ", "
		}
		if h.kind == lockShard {
			out += "shard lock " + h.key
		} else {
			out += "lock " + h.key
		}
	}
	return out
}

// terminates reports whether a block's fall-through edge is unreachable.
func terminates(b ast.Stmt) bool {
	block, ok := b.(*ast.BlockStmt)
	if !ok || len(block.List) == 0 {
		return false
	}
	switch last := block.List[len(block.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
