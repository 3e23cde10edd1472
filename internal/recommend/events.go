package recommend

import (
	"slices"
	"time"

	"agentrec/internal/kvstore"
	"agentrec/internal/ops"
)

// This file is the engine's event-plane integration: the producer hooks
// that publish the engine's and replicator's activity onto an ops.Bus, and
// the assembler of one server's slice of the ops.Snapshot.
//
// Everything here is opt-in (WithEventBus, which a Replicator inherits from
// its engine) and costless when disabled: the hot paths test one nil
// pointer. When enabled, publishing is a bounded copy into the bus's rings
// (zero-alloc, never blocking on consumers — see ops.Bus), so an engine
// write never waits on an observer. Events are published after the shard
// critical section releases; each journal event carries the shard's
// journal sequence number, which is the per-shard order consumers should
// trust, not bus arrival order.

// WithEventBus publishes the engine's activity onto bus as ops events:
// journal appends (KindJournal), compaction passes (KindCompaction), and —
// on the Recommend entry point — served top-N changes (KindRecDelta). A
// Replicator of the engine publishes its lag transitions (KindLag) there
// too: whenever a pull observes a different backlog for a shard than the
// previous pull did, an event records the edge — falling behind (prev 0,
// now N) and catching up (prev N, now 0) included. server is the identity
// stamped into every event, the buyer server index in a platform
// deployment.
func WithEventBus(bus *ops.Bus, server int) Option {
	return func(e *Engine) {
		e.events = bus
		e.eventServer = server
	}
}

// publishJournal emits one KindJournal event for a committed shard
// mutation: records profiles and purchases, purchases of them purchases.
// No-op without a bus.
func (e *Engine) publishJournal(shard int, seq uint64, records, purchases, payloadBytes int) {
	if e.events == nil {
		return
	}
	e.events.Publish(ops.Event{Kind: ops.KindJournal, Journal: ops.JournalEvent{
		Server:       e.eventServer,
		Shard:        shard,
		Seq:          seq,
		Records:      records,
		Purchases:    purchases,
		PayloadBytes: payloadBytes,
	}})
}

// publishCompaction emits one KindCompaction event for a completed
// CompactState pass. No-op without a bus.
func (e *Engine) publishCompaction(elapsed time.Duration, before, after kvstore.SizeStats) {
	if e.events == nil {
		return
	}
	e.events.Publish(ops.Event{Kind: ops.KindCompaction, Compaction: ops.CompactionEvent{
		Server:         e.eventServer,
		Compactions:    e.compactions.Load(),
		DurationMs:     float64(elapsed) / float64(time.Millisecond),
		JournalBytes:   after.JournalBytes,
		LiveBytes:      after.LiveBytes,
		ReclaimedBytes: before.JournalBytes - after.JournalBytes,
	}})
}

// maxDeltaKeys bounds the served-top-N memory used for delta detection.
// Past the bound the baselines reset wholesale: the next answer per key
// re-baselines (and republishes), trading a spurious delta for a hard
// memory ceiling on communities with unbounded distinct request keys.
const maxDeltaKeys = 1 << 16

// publishRecDelta compares the served top-N against the previous answer for
// the same (user, category, strategy) and publishes a KindRecDelta event
// when it changed. The first non-empty answer for a key counts as a change
// from nothing (everything entered). No-op without a bus.
func (e *Engine) publishRecDelta(strategy Strategy, userID, category string, recs []Rec, latency time.Duration) {
	if e.events == nil {
		return
	}
	top := make([]string, len(recs))
	for i, r := range recs {
		top[i] = r.ProductID
	}
	key := userID + "\x00" + category + "\x00" + strategy.String()
	e.deltaMu.Lock()
	if e.lastTop == nil || len(e.lastTop) >= maxDeltaKeys {
		e.lastTop = make(map[string][]string)
	}
	prev, seen := e.lastTop[key]
	if seen && slices.Equal(prev, top) {
		e.deltaMu.Unlock()
		return
	}
	e.lastTop[key] = top
	e.deltaMu.Unlock()
	if !seen && len(top) == 0 {
		return // a first answer with nothing in it is a baseline, not a delta
	}
	entered, exited := diffIDs(prev, top)
	e.events.Publish(ops.Event{Kind: ops.KindRecDelta, RecDelta: ops.RecDelta{
		Server:    e.eventServer,
		UserID:    userID,
		Category:  category,
		Strategy:  strategy.String(),
		Top:       top,
		Entered:   entered,
		Exited:    exited,
		LatencyMs: float64(latency) / float64(time.Millisecond),
	}})
}

// diffIDs reports which ids are new in cur versus prev and which are gone.
func diffIDs(prev, cur []string) (entered, exited []string) {
	in := func(xs []string, id string) bool {
		for _, x := range xs {
			if x == id {
				return true
			}
		}
		return false
	}
	for _, id := range cur {
		if !in(prev, id) {
			entered = append(entered, id)
		}
	}
	for _, id := range prev {
		if !in(cur, id) {
			exited = append(exited, id)
		}
	}
	return entered, exited
}

// ServerSnapshot assembles one server's slice of the unified ops.Snapshot:
// e's sizing plus, when r is non-nil, its replication status. Every stats
// surface (heartbeats, /metrics/snapshot, the load harness) builds its view
// through this one function.
func ServerSnapshot(server int, e *Engine, r *Replicator) ops.ServerSnapshot {
	sv := ops.ServerSnapshot{Server: server, Engine: e.Stats()}
	if r != nil {
		repl := r.Stats()
		sv.Replication = &repl
	}
	return sv
}
