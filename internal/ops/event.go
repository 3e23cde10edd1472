// Package ops is the platform's unified typed observability model: one
// event vocabulary (Event) and one snapshot shape (Snapshot) shared by
// every layer that reports on a running deployment, plus a bounded fan-out
// Bus carrying the live event stream to in-process and wire subscribers.
//
// Before this package existed the platform exposed three disjoint,
// polling-only stats structs (the engine's, the replicator's, and the
// platform's walk over both) that reached no wire. ops collapses them into
// one self-describing model: every field that crosses a process boundary is
// named per the agent-first convention — the unit lives in the field name
// (`lag_records`, `journal_bytes`, `latency_ms`, `at_epoch_ms`) so a
// consumer needs no external schema to interpret the stream.
//
// The package sits below every producer: it imports nothing from the rest
// of the module, so recommend, platform, and buyerserver can all publish
// into and subscribe from the same Bus without import cycles.
package ops

import "time"

// Kind discriminates Event payloads. Exactly one payload field of an Event
// is populated, the one matching its Kind.
type Kind string

// Event kinds.
const (
	// KindSnapshot is the periodic whole-platform heartbeat: one
	// Snapshot subsuming every server's engine and replication stats.
	KindSnapshot Kind = "snapshot"
	// KindRecDelta reports that a consumer's served top-N changed since
	// the last recommendation for the same (user, category, strategy).
	KindRecDelta Kind = "rec_delta"
	// KindJournal is one committed community mutation: one batch of a
	// shard write, its profiles and purchases, in the shard's write order.
	KindJournal Kind = "journal"
	// KindLag reports a replication lag transition observed by a
	// follower's pull loop.
	KindLag Kind = "lag"
	// KindCompaction reports a completed journal compaction pass.
	KindCompaction Kind = "compaction"
	// KindOwnership reports a shard ownership map transition: the
	// coordinator promoted a follower after an owner's lease lapsed, or
	// rebalanced assignments when a server joined or left.
	KindOwnership Kind = "ownership"
	// KindDropped is the synthetic marker a slow subscriber sees in
	// place of events its ring buffer lost; it is never published, only
	// synthesized per subscription.
	KindDropped Kind = "dropped"
)

// ValidKind reports whether k is a known event kind: every publishable kind
// plus the synthetic dropped marker, the vocabulary wire endpoints validate
// ?kinds= against.
func ValidKind(k Kind) bool {
	switch k {
	case KindSnapshot, KindRecDelta, KindJournal, KindLag, KindCompaction, KindOwnership, KindDropped:
		return true
	}
	return false
}

// Event is one observability event. Seq is assigned by the Bus at publish
// time and is strictly increasing per bus — it is the resume cursor wire
// consumers hand back as Last-Event-ID. Payload fields use omitzero/
// omitempty so the encoded event carries only the payload matching Kind.
//
// Event is a plain value: publishing copies it into preallocated rings, so
// the publish path allocates nothing per event.
type Event struct {
	Seq       uint64 `json:"seq,omitempty"` // bus-assigned; 0 only on synthetic drop markers
	Kind      Kind   `json:"kind"`
	AtEpochMs int64  `json:"at_epoch_ms"`

	Journal    JournalEvent    `json:"journal,omitzero"`
	Lag        LagEvent        `json:"lag,omitzero"`
	Compaction CompactionEvent `json:"compaction,omitzero"`
	RecDelta   RecDelta        `json:"rec_delta,omitzero"`
	Ownership  OwnershipEvent  `json:"ownership,omitzero"`
	Dropped    Drop            `json:"dropped,omitzero"`
	Snapshot   *Snapshot       `json:"snapshot,omitempty"`
}

// JournalEvent is one committed community mutation: what the shard's
// journal appended, and its feed record holds, for one batch of a shard
// write, observable live instead of only via replication.
type JournalEvent struct {
	Server       int    `json:"server"`
	Shard        int    `json:"shard"`
	Seq          uint64 `json:"seq"`                     // the shard's version: its feed head
	Records      int    `json:"records,omitempty"`       // profiles and purchases the write committed
	Purchases    int    `json:"purchases,omitempty"`     // of those, purchases: a buy rides in one write with its evidence
	PayloadBytes int    `json:"payload_bytes,omitempty"` // encoded profile payload carried by the record
}

// LagEvent is a replication lag transition: the follower's pull loop
// observed a different backlog for a shard than it did on the previous
// pull. A transition to zero is the catch-up edge.
type LagEvent struct {
	Server         int    `json:"server"` // the follower reporting
	Shard          int    `json:"shard"`
	Owner          int    `json:"owner"`
	LagRecords     uint64 `json:"lag_records"`
	PrevLagRecords uint64 `json:"prev_lag_records"`
}

// CompactionEvent reports one completed journal compaction pass.
type CompactionEvent struct {
	Server         int     `json:"server"`
	Compactions    uint64  `json:"compactions"` // total passes, this one included
	DurationMs     float64 `json:"duration_ms"`
	JournalBytes   int64   `json:"journal_bytes"` // journal size after the rewrite
	LiveBytes      int64   `json:"live_bytes"`
	ReclaimedBytes int64   `json:"reclaimed_bytes"` // how much the rewrite shrank the journal
}

// Ownership transition reasons.
const (
	// OwnershipJoin: a server (re)joined and caught-up shards rebalanced
	// onto it.
	OwnershipJoin = "join"
	// OwnershipLeave: a server deregistered cleanly and its shards were
	// promoted away.
	OwnershipLeave = "leave"
	// OwnershipFailover: an owner's lease lapsed and a caught-up follower
	// was promoted for each of its shards.
	OwnershipFailover = "failover"
)

// OwnershipEvent is one shard ownership map transition: the epoch advanced
// and the listed shards changed owner. Server is the observer publishing
// the event (-1 when the coordinator authority publishes directly).
type OwnershipEvent struct {
	Server    int         `json:"server"`
	Epoch     uint64      `json:"epoch"`
	PrevEpoch uint64      `json:"prev_epoch"`
	Reason    string      `json:"reason"` // join | leave | failover
	Moved     []ShardMove `json:"moved,omitempty"`
}

// ShardMove is one shard's ownership change within a map transition.
type ShardMove struct {
	Shard int `json:"shard"`
	From  int `json:"from"`
	To    int `json:"to"`
}

// RecDelta reports that a consumer's served top-N changed: the engine
// answered a recommendation whose ranked product ids differ from the last
// answer for the same (user, category, strategy).
type RecDelta struct {
	Server    int      `json:"server"`
	UserID    string   `json:"user"`
	Category  string   `json:"category,omitempty"`
	Strategy  string   `json:"strategy"`
	Top       []string `json:"top"`               // ranked product ids as served
	Entered   []string `json:"entered,omitempty"` // ids new since the previous answer
	Exited    []string `json:"exited,omitempty"`  // ids gone since the previous answer
	LatencyMs float64  `json:"latency_ms"`        // time to compute the recommendation
}

// Drop is the payload of a synthetic KindDropped marker: how many events a
// slow subscriber's ring (or a resume past the replay ring's retention)
// lost since the marker's position in the stream.
type Drop struct {
	DroppedEvents uint64 `json:"dropped_events"`
}

// Snapshot is the unified whole-platform stats view: one entry per buyer
// server, each carrying its engine sizing and its replication status. It
// subsumes the engine's, the replicator's, and the
// platform's previously separate stats structs, and is both the periodic
// heartbeat event payload and the /metrics/snapshot response.
type Snapshot struct {
	AtEpochMs int64            `json:"at_epoch_ms"`
	Servers   []ServerSnapshot `json:"servers"`
}

// NewSnapshot stamps the given per-server views with the current time.
func NewSnapshot(servers ...ServerSnapshot) Snapshot {
	return Snapshot{AtEpochMs: time.Now().UnixMilli(), Servers: servers}
}

// TotalLagRecords sums every server's replication backlog — the one number
// an operator checks before trusting follower reads platform-wide.
func (s Snapshot) TotalLagRecords() uint64 {
	var total uint64
	for _, sv := range s.Servers {
		if sv.Replication != nil {
			total += sv.Replication.LagRecords
		}
	}
	return total
}

// ServerSnapshot is one buyer server's slice of the platform snapshot.
type ServerSnapshot struct {
	Server      int                  `json:"server"`
	Engine      EngineSnapshot       `json:"engine"`
	Replication *ReplicationSnapshot `json:"replication,omitempty"`
	Transport   *TransportSnapshot   `json:"transport,omitempty"`
}

// TransportSnapshot is how one server's atp client has reached its peers
// since it started: connections dialled, and requests sent on a kept-alive
// connection instead. Dials climbing in step with traffic while reuses stand
// still is a connection pool that is not being hit.
type TransportSnapshot struct {
	Dials  uint64 `json:"atp_dials_total"`
	Reuses uint64 `json:"atp_reuses_total"`
}

// EngineSnapshot is one recommendation engine's sizing and journal state,
// what the engine's Stats returns.
type EngineSnapshot struct {
	Shards int `json:"shards"`
	Users  int `json:"users"`

	// Which path the first reader after a write took to a current shard view,
	// since construction: re-reading the consumers written (O(writes)), or
	// building a base (O(shard): a shard's first read, a dropped view, or an
	// overlay grown past its cap and folded in).
	ViewPatches  uint64 `json:"view_patches_total"`
	ViewRebuilds uint64 `json:"view_rebuilds_total"`

	// Journal sizing and compaction (all zero without persistence).
	JournalBytes     int64   `json:"journal_bytes"`      // persistence journal size on disk
	LiveBytes        int64   `json:"live_bytes"`         // what the journal would compact down to
	Compactions      uint64  `json:"compactions"`        // CompactState successes (manual + automatic)
	LastCompactionMs float64 `json:"last_compaction_ms"` // duration of the most recent compaction
}

// ReplicationSnapshot is one follower's replication status across every
// shard it does not own, what the replicator's Stats returns.
type ReplicationSnapshot struct {
	Self       int        `json:"self"`
	Servers    int        `json:"servers"`
	LagRecords uint64     `json:"lag_records"` // sum over Shards
	Shards     []ShardLag `json:"shards,omitempty"`
}

// Lag is LagRecords under the name the frozen benchmark calls
// (bench/replicated.go); it goes with ROADMAP item 1's unfreeze.
func (s ReplicationSnapshot) Lag() uint64 { return s.LagRecords }

// ShardLag is one shard's replication status on a follower.
type ShardLag struct {
	Shard      int    `json:"shard"`
	Owner      int    `json:"owner"`
	Epoch      uint64 `json:"epoch,omitempty"`      // owner feed epoch the cursor belongs to (0 = never synced)
	AppliedSeq uint64 `json:"applied_seq"`          // last journal record applied locally
	OwnerSeq   uint64 `json:"owner_seq"`            // owner's feed head as of the last successful pull
	LagRecords uint64 `json:"lag_records"`          // OwnerSeq - AppliedSeq, never negative
	Records    uint64 `json:"records"`              // journal records applied since construction
	Snapshots  uint64 `json:"snapshots,omitempty"`  // snapshot catch-ups since construction
	Pages      uint64 `json:"pages,omitempty"`      // snapshot pages transferred
	LastError  string `json:"last_error,omitempty"` // most recent pull/apply error ("" when healthy)
}
