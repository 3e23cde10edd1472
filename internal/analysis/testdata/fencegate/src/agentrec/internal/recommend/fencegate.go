// Fixture: a minimal shadow of internal/recommend exercising fencegate.
// Type-checked under the real import path so the analyzer's receiver and
// package matching fire exactly as on the repo.
package recommend

// Engine is the fenced resource. Its public write methods admit every
// write; setProfile is the gated primitive that checks admit under the
// shard lock.
type Engine struct{}

func (e *Engine) SetProfile(p int) error                        { return e.setProfile(p, nil) }
func (e *Engine) RecordPurchase(user, pid string) error         { return nil }
func (e *Engine) setProfile(p int, admit func(int) error) error { return nil }

// OwnershipTable holds the admission rules.
type OwnershipTable struct{}

func (t *OwnershipTable) Fence(epoch uint64, shard, self int) error { return nil }

// Rebuild is an Engine method: exempt, it is the engine itself.
func (e *Engine) Rebuild(p int) {
	_ = e.SetProfile(p) // no diagnostic: Engine receiver is exempt
}

// OwnedWriter is the gated shape: its writes are admitted inside the
// engine, so it never calls the public API.
type OwnedWriter struct {
	Local *Engine
	Table *OwnershipTable
}

func (w OwnedWriter) SetProfile(p int) error {
	return w.Local.setProfile(p, func(shard int) error { return w.Table.Fence(1, shard, 0) })
}

// ApplyUnfenced is the violation shape: an exported surface mutating the
// engine through the ungated API.
func ApplyUnfenced(e *Engine, p int) {
	_ = e.SetProfile(p) // want `ungated engine write in exported surface ApplyUnfenced`
}

// ApplyFenced consults the fence and then writes: check-then-act, which
// leaves the fence's verdict open until the shard lock is taken.
func ApplyFenced(e *Engine, t *OwnershipTable, p int) error {
	if err := t.Fence(1, 0, 0); err != nil {
		return err
	}
	return e.SetProfile(p) // want `ungated engine write in exported surface ApplyFenced`
}

// Handler is the replnet shape done right: the handler closure writes
// through a gated writer.
func Handler(e *Engine, t *OwnershipTable) func(p int) error {
	return func(p int) error {
		return OwnedWriter{Local: e, Table: t}.SetProfile(p)
	}
}

// BadHandler returns a closure writing through the ungated API: violation.
func BadHandler(e *Engine) func(p int) error {
	return func(p int) error {
		return e.SetProfile(p) // want `ungated engine write in exported surface BadHandler`
	}
}

// seed is unexported: not a surface, no diagnostic.
func seed(e *Engine, p int) error { return e.SetProfile(p) }

// ReadOnly never mutates: no diagnostic.
func ReadOnly(e *Engine) *Engine { return e }
