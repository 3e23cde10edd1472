package recommend

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"agentrec/internal/ops"
	"agentrec/internal/profile"
)

// This file is the engine's replication layer: the machinery that lets
// every Buyer Agent Server in a multi-server deployment (the paper's
// Fig 3.1 scaled out) answer recommendations from local state.
//
// Each community shard has exactly one owner server (OwnerOf: shard modulo
// server count). Writes are routed to the owner (Router); the owner's
// engine journals them as usual and additionally retains a bounded,
// per-shard, totally ordered tail of JournalRecords (journalFeed). Every
// other server runs a Replicator that tails each owner's feed and applies
// the records to its own engine through the same install paths local writes
// use — so a follower's shard state, durable layout included, converges to
// the owner's. When a follower's cursor predates the retained tail (cold
// start, restart, or a pruned feed) the owner answers with a marker pinned
// at its feed head, never a payload; the follower transfers the shard in
// bounded pages (snappage.go) — in process and over TCP alike — assembles
// them into the ShardData recovery already speaks, replaces the
// shard wholesale (applyShardSnapshot) and resumes live tailing from the
// pinned sequence number.
//
// The feed is in-memory: its epoch is regenerated each Open, so a follower
// whose cursor carries a stale epoch is forced through snapshot catch-up
// rather than silently resuming against a different history. Sell counts
// replicate exactly because they are attributed to the buyer's shard (see
// ShardData), in memory as in the journal: a shard's journal alone
// determines its replica, and a wholesale replace swaps only that shard's
// term of the served sum.

// Errors reported by the replication layer.
var (
	ErrNoJournalFeed = errors.New("recommend: engine has no journal feed (build with WithJournalFeed)")
	ErrBadShard      = errors.New("recommend: shard out of range")
	ErrShardMismatch = errors.New("recommend: journal record routed to wrong shard (server shard counts differ?)")
)

// Journal record operations.
const (
	OpProfiles = "profiles" // a batch of profile installs for one shard
	OpPurchase = "purchase" // one purchase by one of the shard's consumers
)

// JournalRecord is one replicated mutation of one community shard, in the
// shard's total write order. Profiles are carried marshaled so records
// cross process boundaries unchanged.
type JournalRecord struct {
	Shard     int      `json:"shard"`
	Seq       uint64   `json:"seq"`
	Op        string   `json:"op"`
	Profiles  [][]byte `json:"profiles,omitempty"` // OpProfiles: marshaled profiles, install order
	UserID    string   `json:"user,omitempty"`     // OpPurchase
	ProductID string   `json:"product,omitempty"`  // OpPurchase
	// OpPurchase: the time the owner's purchase list kept (absent = undated);
	// a follower installs it as is.
	AtEpochMS int64 `json:"at_epoch_ms,omitempty"`
}

// PurchasePair is one (consumer, product) ownership edge in a SnapshotPage,
// with the time of the consumer's latest purchase of it (absent = undated).
type PurchasePair struct {
	UserID    string `json:"user"`
	ProductID string `json:"product"`
	AtEpochMS int64  `json:"at_epoch_ms,omitempty"`
}

// TailResult is one answer to a journal-tail request: Records when the
// owner could serve the cursor from its retained tail (possibly empty when
// the follower is caught up), Paged when the follower must catch up
// wholesale. Seq is the sequence number the follower's cursor should hold
// after applying. Head is the owner's feed head (the seq its next record
// will extend) when the reply was built; it can run past Seq when the
// transport trimmed the served records, which is exactly what makes
// reported lag real.
type TailResult struct {
	Shards  int             `json:"shards"` // owner's shard count, for config-drift detection
	Epoch   uint64          `json:"epoch"`
	Seq     uint64          `json:"seq"`
	Head    uint64          `json:"head"` // owner's feed head (next-1) at reply time
	Records []JournalRecord `json:"records,omitempty"`
	// Paged marks a cursor the retained tail cannot serve (the engine), or
	// a single record no frame can carry (internal/replnet): the follower
	// must transfer the shard in pages (Peer.SnapshotPage), starting from
	// the cut pinned at (Epoch, Seq).
	Paged bool `json:"paged,omitempty"`
}

// DefaultJournalTail is how many journal records per shard the feed retains
// for followers unless WithJournalFeed overrides it.
const DefaultJournalTail = 4096

// WithJournalFeed makes the engine retain a bounded per-shard tail of its
// write journal in memory so replicas can tail it (Engine.JournalTail).
// n is the per-shard record retention; n <= 0 means DefaultJournalTail.
// Followers whose cursor falls off the retained tail catch up by shard
// snapshot instead, so retention trades memory for snapshot frequency.
func WithJournalFeed(n int) Option {
	return func(e *Engine) {
		if n <= 0 {
			n = DefaultJournalTail
		}
		e.feedCap = n
	}
}

// journalFeed retains the per-shard record tails. Writers append while
// holding their shard's write lock (lock order shard -> feed.mu), so a
// shard's sequence numbers are assigned in the shard's write order; readers
// holding a shard's read lock therefore observe a seq consistent with the
// shard state they see.
type journalFeed struct {
	epoch uint64
	cap   int

	mu     sync.Mutex
	shards []feedShard
}

// feedShard is one shard's retained tail: a ring of the last cap records.
// It grows by append until it holds cap records (start stays 0 meanwhile);
// from then on each emit overwrites the oldest record in place, so a full
// feed's emit allocates nothing and copies one record.
type feedShard struct {
	first uint64          // seq of the oldest retained record; the first record ever is seq 1
	start int             // ring index of that record
	ring  []JournalRecord // retained records, oldest at start
}

// next returns the sequence number the shard's next record will get.
func (fs *feedShard) next() uint64 { return fs.first + uint64(len(fs.ring)) }

func newJournalFeed(nshards, cap int) (*journalFeed, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return nil, fmt.Errorf("recommend: journal feed epoch: %w", err)
	}
	f := &journalFeed{
		epoch:  binary.BigEndian.Uint64(b[:]) | 1, // never 0: zero epoch means "no cursor"
		cap:    cap,
		shards: make([]feedShard, nshards),
	}
	for i := range f.shards {
		f.shards[i].first = 1
	}
	return f, nil
}

// emit appends rec to shard's tail, assigning and returning the next
// sequence number. The caller holds the shard's write lock.
func (f *journalFeed) emit(shard int, rec JournalRecord) uint64 {
	f.mu.Lock()
	fs := &f.shards[shard]
	rec.Shard = shard
	rec.Seq = fs.next()
	if len(fs.ring) < f.cap {
		fs.ring = append(fs.ring, rec)
	} else {
		fs.ring[fs.start] = rec
		fs.start = (fs.start + 1) % len(fs.ring)
		fs.first++
	}
	seq := rec.Seq
	f.mu.Unlock()
	return seq
}

// skip retires shard's retained tail and passes over one sequence number
// without a record: the shard's state was just replaced wholesale, which no
// record describes, so no pin or cursor taken before the replace may match
// after it — an older cursor falls off the tail and pages. The caller holds
// the shard's write lock, as for emit.
func (f *journalFeed) skip(shard int) {
	f.mu.Lock()
	fs := &f.shards[shard]
	fs.first = fs.next() + 1
	fs.ring, fs.start = nil, 0
	f.mu.Unlock()
}

// next returns the sequence number the shard's next record will get.
func (f *journalFeed) next(shard int) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.shards[shard].next()
}

// tailSince returns a copy of shard's records after seq since plus the
// shard's feed head (next-1), or ok=false when the cursor cannot be served
// from the retained tail (epoch mismatch, pruned history, or a cursor from
// a different history running ahead).
func (f *journalFeed) tailSince(shard int, epoch, since uint64) (recs []JournalRecord, head uint64, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fs := &f.shards[shard]
	next := fs.next()
	head = next - 1
	if epoch != f.epoch {
		return nil, head, false
	}
	if since+1 < fs.first || since+1 > next {
		return nil, head, false
	}
	out := make([]JournalRecord, next-(since+1))
	if len(out) > 0 {
		i := (fs.start + int(since+1-fs.first)) % len(fs.ring)
		n := copy(out, fs.ring[i:])
		copy(out[n:], fs.ring)
	}
	return out, head, true
}

// maxFeedRecordBytes bounds the encoded profile payload of one OpProfiles
// journal record, keeping every record comfortably inside a network frame
// (atp.MaxFrame is 16 MiB; JSON/base64 transport overhead is ~1.4x).
const maxFeedRecordBytes = 4 << 20

// chunkEncoded splits encoded payloads into groups whose byte sizes sum to
// at most limit each (a single oversized payload still gets its own group).
func chunkEncoded(encoded [][]byte, limit int) [][][]byte {
	var out [][][]byte
	var cur [][]byte
	size := 0
	for _, enc := range encoded {
		if len(cur) > 0 && size+len(enc) > limit {
			out = append(out, cur)
			cur, size = nil, 0
		}
		cur = append(cur, enc)
		size += len(enc)
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// JournalTail answers a follower's tail request for one shard: records
// after (epoch, since) when the retained tail covers the cursor, otherwise
// the Paged marker pinned at (feed epoch, head) — constant work, no shard
// lock: the state is cut page by page (SnapshotPage), each page verifying
// the pin under the shard's read lock.
func (e *Engine) JournalTail(shard int, epoch, since uint64) (TailResult, error) {
	if e.feed == nil {
		return TailResult{}, ErrNoJournalFeed
	}
	if shard < 0 || shard >= e.nshards {
		return TailResult{}, fmt.Errorf("%w: %d of %d", ErrBadShard, shard, e.nshards)
	}
	recs, head, ok := e.feed.tailSince(shard, epoch, since)
	tr := TailResult{Shards: e.nshards, Epoch: e.feed.epoch, Seq: head, Head: head, Paged: !ok}
	if ok {
		tr.Seq, tr.Records = since+uint64(len(recs)), recs
	}
	return tr, nil
}

// FeedHeads reports each shard's journal feed head (the seq of the last
// record emitted; 0 when the shard has none), or nil when the engine was
// built without WithJournalFeed. An owner's head is the target a follower
// of the shard must reach to be fully caught up.
func (e *Engine) FeedHeads() []uint64 {
	if e.feed == nil {
		return nil
	}
	out := make([]uint64, e.nshards)
	for s := range out {
		out[s] = e.feed.next(s) - 1
	}
	return out
}

// applyJournalRecord applies one replicated mutation to shard, through the
// same install paths local writes take (so it is journaled to this engine's
// own Persister, indexed, and re-emitted on this engine's feed), admitted
// by admit under the shard lock.
func (e *Engine) applyJournalRecord(shard int, rec JournalRecord, admit admitFunc) error {
	switch rec.Op {
	case OpProfiles:
		if len(rec.Profiles) == 0 {
			// An owner emits a profiles record only for an install; an
			// empty one would advance the cursor past a record that moves
			// no state and no feed head.
			return errors.New("recommend: replicated profiles record carries no profile")
		}
		profs, err := decodeProfiles(rec.Profiles, shard, e.nshards)
		if err != nil {
			return err
		}
		return e.installShardProfiles(e.shards[shard], profs, rec.Profiles, admit)
	case OpPurchase:
		if e.ShardOf(rec.UserID) != shard {
			return fmt.Errorf("%w: user %s", ErrShardMismatch, rec.UserID)
		}
		return e.recordPurchaseAt(rec.UserID, rec.ProductID, time.UnixMilli(rec.AtEpochMS), admit)
	default:
		return fmt.Errorf("recommend: unknown journal op %q", rec.Op)
	}
}

// applyShardSnapshot replaces shard's entire state with data, whose maps it
// adopts, once admit admitted it under the shard lock: the durable buckets
// (Persister.SaveShard), then memory (replaceShardLocked), then the feed
// head. Every profile must hash to shard; ShardData.addPage checks that as
// pages arrive.
func (e *Engine) applyShardSnapshot(shard int, data ShardData, admit admitFunc) error {
	if shard < 0 || shard >= e.nshards {
		return fmt.Errorf("%w: %d of %d", ErrBadShard, shard, e.nshards)
	}
	sh := e.shards[shard]
	if err := e.lockShardW(sh, admit); err != nil {
		return err
	}
	if e.persist != nil {
		if err := e.persist.SaveShard(sh.id, data); err != nil {
			sh.mu.Unlock()
			return err
		}
	}
	e.replaceShardLocked(sh, data)
	if e.feed != nil {
		e.feed.skip(sh.id)
	}
	sh.mu.Unlock()
	// One snapshot catch-up rewrites a whole shard's durable buckets — the
	// follower pressure that outgrows WALs fastest — so evaluate the
	// compaction policy unconditionally rather than sampling.
	e.checkCompaction()
	return nil
}

// --- ownership and write routing ---

// OwnerOf reports which of servers owns shard under the static (epoch-1)
// assignment: the server every write for the shard is routed to, and the
// one followers tail it from. Every server must agree on the shard count
// for the map to be consistent. Deployments with a coordinator route by an
// OwnershipTable instead (see ownership.go); StaticOwnership freezes this
// function into the table's epoch-1 map, so both paths agree until the
// coordinator moves a shard.
func OwnerOf(shard, servers int) int {
	if servers <= 0 {
		return 0
	}
	return shard % servers
}

// Writer is the community write surface: the subset of Engine the write
// path needs, satisfied by both *Engine (local writes) and *Router
// (ownership-routed writes), so the Buyer Agent Server does not care
// whether it is the owner.
type Writer interface {
	SetProfile(p *profile.Profile) error
	SetProfiles(ps []*profile.Profile) error
	RecordPurchase(userID, productID string) error
	RecordPurchaseAt(userID, productID string, at time.Time) error
}

var (
	_ Writer = (*Engine)(nil)
	_ Writer = (*Router)(nil)
)

// Router routes community writes to the shard owner's engine while reads
// stay on the local engine. writers[i] is the write surface of server i (a
// remote forwarder for peers; for self, the local engine, whose public
// writes it admits under the shard lock only while the lease is live and
// this server owns the shard). Ownership comes from the local engine's
// OwnershipTable, re-read per write so a map the coordinator advances
// re-targets routing immediately; a static deployment's table holds the
// epoch-1 map and routing is the historical shard%N.
type Router struct {
	local   *Engine
	writers []Writer
	owners  *OwnershipTable
}

// NewRouter returns a write router for server self among len(writers)
// servers. writers[self] is ignored; the local engine is used. It binds the
// engine as server self to the static map of len(writers) servers (see
// BindOwnership), so it fails on an engine bound to another map.
func NewRouter(local *Engine, self int, writers []Writer) (*Router, error) {
	if self < 0 || self >= len(writers) {
		return nil, fmt.Errorf("recommend: router self %d out of %d servers", self, len(writers))
	}
	for i, w := range writers {
		if w == nil && i != self {
			return nil, fmt.Errorf("recommend: router writer %d is nil", i)
		}
	}
	owners, err := local.BindOwnership(NewOwnershipTable(StaticOwnership(local.nshards, len(writers))), self)
	if err != nil {
		return nil, err
	}
	r := &Router{local: local, writers: slices.Clone(writers), owners: owners}
	r.writers[self] = local
	return r, nil
}

// writerFor resolves userID's current owner to a write surface.
func (r *Router) writerFor(userID string) (Writer, error) {
	owner := r.owners.Owner(r.local.ShardOf(userID))
	if owner < 0 || owner >= len(r.writers) {
		return nil, fmt.Errorf("%w: no server owns user %s (owner %d of %d)",
			ErrNotOwner, userID, owner, len(r.writers))
	}
	return r.writers[owner], nil
}

// SetProfile installs the profile on the owning server.
func (r *Router) SetProfile(p *profile.Profile) error { return r.SetProfiles([]*profile.Profile{p}) }

// SetProfiles bulk-installs profiles, grouped per owning server with
// per-server order preserved.
func (r *Router) SetProfiles(ps []*profile.Profile) error {
	byServer := make([][]*profile.Profile, len(r.writers))
	for _, p := range ps {
		owner := r.owners.Owner(r.local.ShardOf(p.UserID))
		if owner < 0 || owner >= len(r.writers) {
			return fmt.Errorf("%w: no server owns user %s (owner %d of %d)",
				ErrNotOwner, p.UserID, owner, len(r.writers))
		}
		byServer[owner] = append(byServer[owner], p)
	}
	for i, group := range byServer {
		if len(group) == 0 {
			continue
		}
		if err := r.writers[i].SetProfiles(group); err != nil {
			return err
		}
	}
	return nil
}

// RecordPurchase records the undated purchase on the owning server.
func (r *Router) RecordPurchase(userID, productID string) error {
	return r.RecordPurchaseAt(userID, productID, time.Time{})
}

// RecordPurchaseAt records the purchase made at at on the owning server.
func (r *Router) RecordPurchaseAt(userID, productID string, at time.Time) error {
	w, err := r.writerFor(userID)
	if err != nil {
		return err
	}
	return w.RecordPurchaseAt(userID, productID, at)
}

// --- the replicator ---

// Peer is one remote server's journal-tail surface. LocalPeer adapts an
// in-process engine; internal/replnet adapts a TCP peer over atp.
// SnapshotPage is the whole-shard catch-up: the follower calls it after a
// tail request came back TailResult.Paged.
type Peer interface {
	JournalTail(ctx context.Context, shard int, epoch, since uint64) (TailResult, error)
	SnapshotPage(ctx context.Context, shard int, epoch, seq uint64, token string) (SnapshotPage, error)
}

// LocalPeer adapts an in-process Engine as a Peer (the platform.Config
// single-process deployment of Fig 3.1). PageBytes is the snapshot page
// budget; zero means the engine's default (maxFeedRecordBytes).
type LocalPeer struct {
	Engine    *Engine
	PageBytes int
}

// JournalTail implements Peer.
func (p LocalPeer) JournalTail(_ context.Context, shard int, epoch, since uint64) (TailResult, error) {
	return p.Engine.JournalTail(shard, epoch, since)
}

// SnapshotPage implements Peer.
func (p LocalPeer) SnapshotPage(_ context.Context, shard int, epoch, seq uint64, token string) (SnapshotPage, error) {
	return p.Engine.SnapshotPage(shard, epoch, seq, token, p.PageBytes)
}

// ReplicatorOption configures a Replicator.
type ReplicatorOption func(*Replicator)

// DefaultPullInterval is how often a replicator's background loop tails
// every owner unless WithPullInterval overrides it.
const DefaultPullInterval = 100 * time.Millisecond

// WithPullInterval sets how often the background loop tails every owner
// (default DefaultPullInterval).
func WithPullInterval(d time.Duration) ReplicatorOption {
	return func(r *Replicator) {
		if d > 0 {
			r.interval = d
		}
	}
}

// PullWithOwnership binds the engine to t in place of the static map of
// len(peers) servers (see BindOwnership): the first binding adopts t, and
// an engine already bound must hold t's map.
func PullWithOwnership(t *OwnershipTable) ReplicatorOption {
	return func(r *Replicator) {
		if t != nil {
			r.owners = t
		}
	}
}

// replCursor is the follower's position in one shard's journal.
type replCursor struct{ epoch, seq uint64 }

// follower is everything a Replicator keeps for one shard it follows, made
// when the shard is first followed and deleted whole on promotion. Fields
// are guarded by Replicator.mu; the pointer is stable while followed, and
// only Sync (serialized by syncMu) adds or removes one.
type follower struct {
	st      ops.ShardLag   // as Stats reports it (LagRecords is derived there)
	cur     replCursor     // next tail request; st.AppliedSeq advances with it
	xfer    *pagedTransfer // interrupted paged transfer, resumable across pulls
	lastLag uint64         // lag at the previous successful pull (lag events are edges)
}

// lag is how many journal records the shard's replica was behind the owner
// at the last successful pull.
func (f *follower) lag() uint64 {
	if f.st.OwnerSeq <= f.st.AppliedSeq {
		return 0
	}
	return f.st.OwnerSeq - f.st.AppliedSeq
}

// Replicator keeps one server's engine converged with the shards it does
// not own by tailing each owner's journal. Construct with NewReplicator;
// call Sync for a deterministic catch-up pass (tests, post-seed barriers),
// Run (or Start, its background form) for the pull loop, and Close when done.
type Replicator struct {
	e        *Engine
	self     int
	peers    []Peer
	interval time.Duration
	owners   *OwnershipTable

	syncMu   sync.Mutex        // serializes passes (ticker vs explicit Sync)
	mu       sync.Mutex        // guards followed and every follower's fields
	followed map[int]*follower // by shard; exactly the shards this server does not own

	startOnce sync.Once
	cancel    context.CancelFunc // set by Start; stops its Run
	done      chan struct{}      // closed when Start's Run has returned
}

// NewReplicator returns a replicator for server self among len(peers)
// servers; peers[i] tails server i (peers[self] is ignored). The engine
// must use the same shard count as every peer. It binds the engine as
// server self to the static map of len(peers) servers (see BindOwnership)
// and resolves owners through the engine's table. Each Sync pass re-reads
// the table, so a map transition re-targets pulls on the next pass: a newly
// followed shard keeps its old cursor (the new owner's feed epoch differs,
// forcing snapshot catch-up), and a newly owned shard stops being pulled.
func NewReplicator(e *Engine, self int, peers []Peer, opts ...ReplicatorOption) (*Replicator, error) {
	if self < 0 || self >= len(peers) {
		return nil, fmt.Errorf("recommend: replicator self %d out of %d servers", self, len(peers))
	}
	r := &Replicator{
		e:        e,
		self:     self,
		peers:    append([]Peer(nil), peers...),
		interval: DefaultPullInterval,
		followed: make(map[int]*follower),
	}
	for _, opt := range opts {
		opt(r)
	}
	if r.owners == nil {
		r.owners = NewOwnershipTable(StaticOwnership(e.nshards, len(peers)))
	}
	owners, err := e.BindOwnership(r.owners, self)
	if err != nil {
		return nil, err
	}
	r.owners = owners
	initial := owners.Current()
	for s := 0; s < e.nshards; s++ {
		if owner := initial.Owner(s); owner != self {
			if owner < 0 || owner >= len(peers) || peers[owner] == nil {
				return nil, fmt.Errorf("recommend: replicator has no peer for server %d (owner of shard %d)", owner, s)
			}
			r.followed[s] = &follower{st: ops.ShardLag{Shard: s, Owner: owner}}
		}
	}
	return r, nil
}

// Sync performs one full catch-up pass over every non-owned shard and
// returns the first error encountered (remaining shards are still pulled).
// After a nil return, this engine has applied every record the owners had
// journaled when the pass reached them.
func (r *Replicator) Sync(ctx context.Context) error {
	r.syncMu.Lock()
	defer r.syncMu.Unlock()
	var firstErr error
	for s := 0; s < r.e.nshards; s++ {
		owner := r.owners.Owner(s)
		if owner == r.self {
			// Promoted (or always owned): this server's feed is now the
			// shard's history — drop the follower record so Stats reports
			// only shards actually followed.
			r.mu.Lock()
			delete(r.followed, s)
			r.mu.Unlock()
			continue
		}
		// Ensure a follower record exists and tracks the current owner. A
		// changed owner keeps the old cursor: its feed epoch belongs to the
		// previous owner, so the first pull from the new owner falls back
		// to snapshot catch-up — the same path a feed restart takes.
		r.mu.Lock()
		f := r.followed[s]
		if f == nil {
			f = &follower{st: ops.ShardLag{Shard: s}}
			r.followed[s] = f
		}
		f.st.Owner = owner
		r.mu.Unlock()
		var err error
		if owner < 0 || owner >= len(r.peers) || r.peers[owner] == nil {
			err = fmt.Errorf("recommend: no peer for server %d (owner of shard %d)", owner, s)
			r.mu.Lock()
			f.st.LastError = err.Error()
			r.mu.Unlock()
		} else {
			err = r.pullShard(ctx, f, owner)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// AppliedSeqs reports, per shard, how far this server's replica has
// advanced in the owning feed's numbering: the follower cursor's applied
// sequence for followed shards, the engine's own feed head for owned ones.
// This is the catch-up evidence servers attach to coordinator lease
// renewals — followers of the same owner report in the same numbering, so
// the authority can promote the most caught-up one exactly.
func (r *Replicator) AppliedSeqs() []uint64 {
	heads := r.e.FeedHeads()
	out := make([]uint64, r.e.nshards)
	r.mu.Lock()
	for s := 0; s < r.e.nshards; s++ {
		if f, ok := r.followed[s]; ok {
			out[s] = f.st.AppliedSeq
		} else if heads != nil {
			out[s] = heads[s]
		}
	}
	r.mu.Unlock()
	return out
}

// pullShard tails f's shard from owner once and applies what came back.
func (r *Replicator) pullShard(ctx context.Context, f *follower, owner int) (err error) {
	shard := f.st.Shard
	defer func() {
		var lagEv ops.Event
		publish := false
		r.mu.Lock()
		if err != nil {
			f.st.LastError = err.Error()
		} else {
			f.st.LastError = ""
			if r.e.events != nil {
				// Lag transition: this pull observed a different backlog
				// than the previous one. Falling behind and catching up are
				// both edges; steady lag is silent.
				if lag, prev := f.lag(), f.lastLag; lag != prev {
					f.lastLag = lag
					lagEv = ops.Event{Kind: ops.KindLag, Lag: ops.LagEvent{
						Server:         r.e.eventServer,
						Shard:          shard,
						Owner:          owner,
						LagRecords:     lag,
						PrevLagRecords: prev,
					}}
					publish = true
				}
			}
		}
		r.mu.Unlock()
		if publish {
			r.e.events.Publish(lagEv)
		}
	}()

	r.mu.Lock()
	cur := f.cur
	r.mu.Unlock()
	tr, err := r.peers[owner].JournalTail(ctx, shard, cur.epoch, cur.seq)
	if err != nil {
		return fmt.Errorf("recommend: tailing shard %d from server %d: %w", shard, owner, err)
	}
	if tr.Shards != r.e.nshards {
		return fmt.Errorf("%w: owner has %d shards, follower %d", ErrShardMismatch, tr.Shards, r.e.nshards)
	}
	if tr.Paged {
		return r.pullShardPaged(ctx, f, owner, tr.Epoch, tr.Seq)
	}
	// Any non-paged reply obsoletes a saved partial transfer for the shard.
	r.mu.Lock()
	f.xfer = nil
	r.mu.Unlock()
	// reset forgets the cursor, so the next pull pages.
	reset := func(err error) error {
		r.mu.Lock()
		f.cur = replCursor{}
		r.mu.Unlock()
		return err
	}
	if cur.epoch == 0 || tr.Epoch != cur.epoch {
		// An owner serves records only to a cursor of its own feed epoch,
		// which is never 0; anything else, the zero cursor of a follower
		// that has not pulled yet included, it answers Paged. A reply under
		// another epoch (a peer of another version, or a hostile one)
		// continues a history this replica never held: adopting it would
		// apply that history's records onto stale state.
		return reset(fmt.Errorf("recommend: shard %d: server %d answered cursor epoch %x with a tail of epoch %x",
			shard, owner, cur.epoch, tr.Epoch))
	}
	for i, rec := range tr.Records {
		if want := cur.seq + uint64(i) + 1; rec.Seq != want {
			// A hole means the tail and our cursor disagree; checked before
			// the first apply, so a reply with one changes nothing.
			return reset(fmt.Errorf("recommend: shard %d journal gap: want record %d, got %d", shard, want, rec.Seq))
		}
	}
	seq, admit := cur.seq, from(owner)
	for _, rec := range tr.Records {
		if err := r.e.applyJournalRecord(shard, rec, admit); err != nil {
			return err
		}
		seq = rec.Seq
		r.mu.Lock()
		f.cur.seq, f.st.AppliedSeq = seq, seq
		f.st.Records++
		r.mu.Unlock()
	}
	r.mu.Lock()
	// OwnerSeq is the owner's feed head, not the reply's last seq: a reply
	// the transport trimmed to a prefix leaves the follower genuinely
	// behind, and the reported lag must say so.
	f.st.Epoch, f.st.OwnerSeq = tr.Epoch, headOf(tr, seq)
	r.mu.Unlock()
	return nil
}

// from is the admission rule of an apply pulled from owner: the engine
// drops the reply, under the shard lock, unless owner still owns the shard
// (admitApply). The caller then leaves cursor and state alone.
func from(owner int) admitFunc {
	return func(t *OwnershipTable, shard, _ int) error { return t.admitApply(shard, owner) }
}

// headOf is the owner's feed head carried in the reply, clamped so lag can
// never go negative against the sequence the follower just applied to.
func headOf(tr TailResult, seq uint64) uint64 {
	if tr.Head < seq {
		return seq
	}
	return tr.Head
}

// noteOwnerHead advances the shard's observed owner head without touching
// the applied cursor, so the reported lag is real while a multi-pull paged
// bootstrap is still in flight (the follower is maximally behind exactly
// then). Caller holds r.mu.
func (f *follower) noteOwnerHead(head uint64) {
	if f.st.OwnerSeq < head {
		f.st.OwnerSeq = head
	}
}

// maxPagedRestarts bounds how many times one pullShardPaged call lets the
// owner restart the transfer (the cut moves whenever the shard takes a
// write mid-transfer). Past the bound the pull reports an error and the
// next Sync tries again — a hot shard makes progress once its writes pause
// for one transfer, and the error keeps the stall visible in Stats.
const maxPagedRestarts = 8

// pagedTransfer is the saved progress of one interrupted paged transfer:
// the pin it runs under, the continuation token to ask for next, and the
// pages assembled so far. Saving it across pulls means a bootstrap too
// large for one pull's context (the background loop bounds each Sync) makes
// forward progress every tick instead of re-downloading from scratch; the
// pin check keeps resumption exact — if the owner's cut moved meanwhile,
// the next pull's marker carries a different pin and the saved transfer is
// discarded.
type pagedTransfer struct {
	epoch, seq uint64
	token      string
	data       ShardData
}

// pullShardPaged transfers shard's state from owner in bounded pages pinned
// at (epoch, seq), decoding each as it arrives and applying the assembled
// ShardData wholesale. A page carrying a different (epoch, seq) than
// requested is the first page of a transfer the owner restarted because the
// pinned cut was gone; the assembled pages are discarded and accumulation
// starts over at the new pin.
func (r *Replicator) pullShardPaged(ctx context.Context, f *follower, owner int, epoch, seq uint64) error {
	shard := f.st.Shard
	// Resume the saved transfer when the owner's pin has not moved since
	// the pull that was interrupted.
	var data ShardData
	token := ""
	r.mu.Lock()
	if x := f.xfer; x != nil && x.epoch == epoch && x.seq == seq {
		data, token = x.data, x.token
	}
	f.xfer = nil
	f.noteOwnerHead(seq)
	r.mu.Unlock()
	restarts := 0
	for {
		pg, err := r.peers[owner].SnapshotPage(ctx, shard, epoch, seq, token)
		if err != nil {
			// Save progress: if the pin is still live on the next pull, the
			// transfer resumes at this token instead of starting over.
			r.mu.Lock()
			f.xfer = &pagedTransfer{epoch: epoch, seq: seq, token: token, data: data}
			r.mu.Unlock()
			return fmt.Errorf("recommend: paging shard %d snapshot from server %d: %w", shard, owner, err)
		}
		if pg.Shards != r.e.nshards {
			return fmt.Errorf("%w: owner has %d shards, follower %d", ErrShardMismatch, pg.Shards, r.e.nshards)
		}
		if pg.Epoch != epoch || pg.Seq != seq {
			if restarts++; restarts > maxPagedRestarts {
				return fmt.Errorf("recommend: shard %d snapshot cut moved %d times mid-transfer (hot shard); retrying on the next pull", shard, restarts)
			}
			epoch, seq, token, data = pg.Epoch, pg.Seq, "", ShardData{}
			r.mu.Lock()
			f.st.Restarts++
			f.noteOwnerHead(seq)
			r.mu.Unlock()
		}
		if err := data.addPage(r.e, shard, pg); err != nil {
			return err
		}
		r.mu.Lock()
		f.st.Pages++
		r.mu.Unlock()
		if pg.Next == "" {
			break
		}
		token = pg.Next
	}
	if err := r.e.applyShardSnapshot(shard, data, from(owner)); err != nil {
		return err
	}
	r.mu.Lock()
	f.cur = replCursor{epoch: epoch, seq: seq}
	f.st.Epoch, f.st.AppliedSeq, f.st.OwnerSeq = epoch, seq, seq
	f.st.Snapshots++
	r.mu.Unlock()
	return nil
}

// Start launches Run in a background goroutine that Close stops. It is
// idempotent.
func (r *Replicator) Start() {
	r.startOnce.Do(func() {
		ctx, cancel := context.WithCancel(context.Background())
		r.cancel = cancel
		r.done = make(chan struct{})
		go func() {
			defer close(r.done)
			r.Run(ctx)
		}()
	})
}

// Run is the pull loop: one Sync pass per interval until ctx is cancelled,
// then ctx.Err(). Every pass runs under ctx, so cancellation also aborts an
// in-flight pull against a slow peer. A daemon that owns a shutdown context
// calls Run itself; Start is `go Run` under a context Close cancels.
func (r *Replicator) Run(ctx context.Context) error {
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
		sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		r.Sync(sctx) // per-shard errors are kept in Stats
		cancel()
	}
}

// Close stops the loop Start launched, if any, and waits for it; a later
// Start is a no-op.
func (r *Replicator) Close() error {
	r.startOnce.Do(func() {}) // orders this read of cancel after Start's write
	if r.cancel != nil {
		r.cancel()
		<-r.done
	}
	return nil
}

// Stats reports per-shard replication status, ordered by shard, in the ops
// model. This is the one place lag is materialized as `lag_records`.
func (r *Replicator) Stats() ops.ReplicationSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := ops.ReplicationSnapshot{Self: r.self, Servers: len(r.peers)}
	for s := 0; s < r.e.nshards; s++ {
		if f, ok := r.followed[s]; ok {
			st := f.st
			st.LagRecords = f.lag()
			out.LagRecords += st.LagRecords
			out.Shards = append(out.Shards, st)
		}
	}
	return out
}
