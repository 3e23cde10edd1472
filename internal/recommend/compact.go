package recommend

import (
	"errors"
	"time"

	"agentrec/internal/kvstore"
	"agentrec/internal/ops"
)

// This file is the engine's automatic journal compaction policy. The
// durability layer (persist.go) journals every mutation append-only, so a
// long-lived community WAL accumulates profile overwrites without bound —
// and a replica accumulates them far faster than an owner, because a
// follower journals every applied record into its own WAL *and*
// Persister.SaveShard rewrites whole shards on snapshot catch-up. The
// policy watches the journal-size-to-live-size ratio the Persister
// maintains incrementally (SizeStats) and rewrites the journal down to
// live state when it is exceeded.
//
// The rewrite itself never runs on a write path: policy evaluation is a
// couple of atomic operations, and when it fires the compaction runs in a
// single-flight background goroutine (the Persister's crash-safe Compact —
// for the kvstore implementation a temp-file + atomic-rename swap that
// excludes writers only for the final delta carry-over). See DESIGN.md
// "Compaction".

// CompactionPolicy controls automatic journal compaction, enabled with
// WithAutoCompaction. The zero value disables it (manual
// Engine.CompactState only).
type CompactionPolicy struct {
	// Ratio triggers a compaction when the journal holds at least Ratio
	// times the encoded live state. <= 0 disables automatic compaction;
	// values at or below 1 compact whenever the journal exceeds the live
	// state at all (subject to MinBytes).
	Ratio float64
	// MinBytes is the smallest journal worth compacting; below it the
	// ratio is ignored [DefaultCompactMinBytes].
	MinBytes int64
	// CheckEvery is how many journaled writes elapse between policy
	// evaluations on the append path [DefaultCompactCheckEvery]. Snapshot
	// catch-up rewrites (the follower path, where a single apply can
	// append a whole shard) always evaluate.
	CheckEvery int
}

// Compaction policy defaults. The Follower* values are the
// replication-aware eager variant platform deployments apply when engines
// are replicated: a follower's WAL accumulates overwrites faster than an
// owner's, so it is checked more often and compacted from a smaller size.
const (
	DefaultCompactMinBytes   = 1 << 20 // 1 MiB
	DefaultCompactCheckEvery = 64

	FollowerCompactMinBytes   = 256 << 10 // 256 KiB
	FollowerCompactCheckEvery = 16
)

// FollowerCompactionPolicy returns the eager policy for ratio, the variant
// deployments of several buyer servers (platform.Config.BuyerServers >= 2,
// platformd -buyer-peers) apply to every server's engine.
func FollowerCompactionPolicy(ratio float64) CompactionPolicy {
	return CompactionPolicy{
		Ratio:      ratio,
		MinBytes:   FollowerCompactMinBytes,
		CheckEvery: FollowerCompactCheckEvery,
	}
}

// WithAutoCompaction makes the engine compact its persistence journal
// automatically under p. Only meaningful together with WithPersistence /
// WithPersister; a zero-Ratio policy leaves compaction manual.
func WithAutoCompaction(p CompactionPolicy) Option {
	return func(e *Engine) { e.compactPolicy = p }
}

// noteJournalWrite is called after every journaled mutation commits; every
// CheckEvery-th call it evaluates the policy. The hot-path cost is two
// atomic operations.
func (e *Engine) noteJournalWrite() {
	if e.persist == nil || e.compactPolicy.Ratio <= 0 {
		return
	}
	every := e.compactPolicy.CheckEvery
	if every <= 0 {
		every = DefaultCompactCheckEvery
	}
	if e.compactCheck.Add(1)%uint64(every) != 0 {
		return
	}
	e.checkCompaction()
}

// policyExceeded reports whether js has outgrown the policy. The journal
// must strictly exceed the live state: a freshly compacted journal
// (journal == live) never fires, which is what terminates the background
// re-evaluation loop even for ratios at or below 1.
func (e *Engine) policyExceeded(js kvstore.SizeStats) bool {
	min := e.compactPolicy.MinBytes
	if min <= 0 {
		min = DefaultCompactMinBytes
	}
	return js.JournalBytes >= min &&
		js.JournalBytes > js.LiveBytes &&
		float64(js.JournalBytes) >= e.compactPolicy.Ratio*float64(js.LiveBytes)
}

// checkCompaction evaluates the policy now and, when the journal has
// outgrown the live state, compacts it in a background goroutine. Single
// flight: a check while a compaction is already running is a no-op, so
// writers never block on (or pile up behind) a rewrite. The goroutine
// re-evaluates after each rewrite, because writes carried over into the
// compacted log during the rewrite can leave it over policy again.
func (e *Engine) checkCompaction() {
	if e.persist == nil || e.compactPolicy.Ratio <= 0 {
		return
	}
	if !e.compacting.CompareAndSwap(false, true) {
		return
	}
	js, err := e.persist.SizeStats()
	if err != nil {
		// Same contract as every other read-path persistence failure: a
		// store closed under us is benign, anything else surfaces sticky —
		// a silently broken SizeStats would silently disable compaction.
		if !errors.Is(err, kvstore.ErrClosed) {
			e.setErr(err)
		}
		e.compacting.Store(false)
		return
	}
	if !e.policyExceeded(js) {
		e.compacting.Store(false)
		return
	}
	// The gate orders this Add against Close's Wait (a WaitGroup forbids
	// Add-from-zero concurrent with Wait): once Close has run, no new
	// background compaction may start.
	e.compactGate.Lock()
	if e.compactClosed {
		e.compactGate.Unlock()
		e.compacting.Store(false)
		return
	}
	e.compactWG.Add(1)
	e.compactGate.Unlock()
	go func() {
		defer e.compactWG.Done()
		defer e.compacting.Store(false)
		for {
			if err := e.CompactState(); err != nil {
				// A compaction racing Close loses benignly; anything else
				// is a real durability problem and must surface.
				if !errors.Is(err, kvstore.ErrClosed) {
					e.setErr(err)
				}
				return
			}
			js, err := e.persist.SizeStats()
			if err != nil {
				if !errors.Is(err, kvstore.ErrClosed) {
					e.setErr(err)
				}
				return
			}
			if !e.policyExceeded(js) {
				return
			}
		}
	}()
}

// fillJournalSizing populates st's journal sizing and compaction fields.
// Errors other than a concurrently closed store surface as the engine's
// sticky error, like any other read-path persistence failure.
func (e *Engine) fillJournalSizing(st *ops.EngineSnapshot) {
	st.Compactions = e.compactions.Load()
	st.LastCompactionMs = float64(e.compactNanos.Load()) / float64(time.Millisecond)
	if e.persist == nil {
		return
	}
	js, err := e.persist.SizeStats()
	if err != nil {
		if !errors.Is(err, kvstore.ErrClosed) {
			e.setErr(err)
		}
		return
	}
	st.JournalBytes, st.LiveBytes = js.JournalBytes, js.LiveBytes
}
