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
// engine journals them as usual and additionally retains, in each shard,
// a bounded, totally ordered tail of JournalRecords: the shard's journal
// feed, numbered by the shard's one version (shard.gen) and kept under the
// shard's own lock (shard.emit). Every other server runs a Replicator that
// tails each owner's feed and applies the records to its own engine
// through the same install paths local writes use — so a follower's shard
// state, durable layout included, converges to the owner's. When a
// follower's cursor predates the retained tail (cold start, restart, or a
// pruned feed) the owner answers with a marker at its feed head, never a
// payload; the follower transfers the shard in bounded pages, all cut from
// one immutable pin of it (snappage.go) — in process and over TCP alike —
// assembles them into the ShardData image recovery already speaks,
// replaces the shard wholesale (applyShardSnapshot) and resumes live
// tailing from the pin's sequence number.
//
// The feed is in-memory: its epoch is regenerated each Open and every
// shard's version restarts at 0, so a follower whose cursor carries a
// stale epoch is forced through snapshot catch-up rather than silently
// resuming against a different history. Sell counts replicate exactly
// because they are attributed to the buyer's shard (see ShardData), in
// memory as in the journal: a shard's journal alone determines its
// replica, and a wholesale replace swaps only that shard's term of the
// served sum.

// Errors reported by the replication layer.
var (
	ErrNoJournalFeed = errors.New("recommend: engine has no journal feed (build with WithJournalFeed)")
	ErrBadShard      = errors.New("recommend: shard out of range")
	ErrShardMismatch = errors.New("recommend: journal record routed to wrong shard (server shard counts differ?)")
)

// JournalRecord is one replicated mutation of one community shard, in the
// shard's total write order: one batch of one shard write, as the write
// kept it. Profiles are carried marshaled, in install order, so records
// cross process boundaries unchanged; the purchases follow them, each with
// the time the owner's purchase list kept, which a follower installs as
// is. A lone purchase is a record of one purchase and no profile.
type JournalRecord struct {
	Seq       uint64         `json:"seq"`
	Profiles  [][]byte       `json:"profiles,omitempty"`
	Purchases []PurchasePair `json:"purchases,omitempty"`
}

// PurchasePair is one (consumer, product) edge of a SnapshotPage or one
// purchase of a write, with the time of the latest purchase (absent = undated).
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
	Head    uint64          `json:"head"` // owner's feed head (the shard's version) at reply time
	Records []JournalRecord `json:"records,omitempty"`
	// Paged marks a cursor the retained tail cannot serve (the engine), or
	// a single record no frame can carry (internal/replnet): the follower
	// must transfer the shard in pages (Peer.SnapshotPage), from a cut at
	// (Epoch, Seq) or later.
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

// newFeedEpoch draws the epoch of a journal feed: random per Open, never 0,
// which means "no cursor".
func newFeedEpoch() (uint64, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("recommend: journal feed epoch: %w", err)
	}
	return binary.BigEndian.Uint64(b[:]) | 1, nil
}

// JournalTail answers a follower's tail request for one shard: the records
// after (epoch, since) when the shard's retained records cover the cursor
// (epoch current, since from one before the oldest to the head), otherwise
// the Paged marker pinned at (feed epoch, head). Either is cut under the
// shard's read lock, and the marker is constant work — two loads, no copy:
// the state itself is cut page by page (SnapshotPage) from a pin the first
// page takes.
func (e *Engine) JournalTail(shard int, epoch, since uint64) (TailResult, error) {
	if e.feedCap == 0 {
		return TailResult{}, ErrNoJournalFeed
	}
	if shard < 0 || shard >= e.nshards {
		return TailResult{}, fmt.Errorf("%w: %d of %d", ErrBadShard, shard, e.nshards)
	}
	sh := e.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	head := sh.gen.Load()
	tr := TailResult{Shards: e.nshards, Epoch: e.feedEpoch, Seq: head, Head: head}
	oldest := head + 1 - uint64(len(sh.ring))
	if epoch != e.feedEpoch || since+1 < oldest || since > head {
		tr.Paged = true
		return tr, nil
	}
	tr.Records = make([]JournalRecord, head-since)
	if len(tr.Records) > 0 {
		i := (sh.start + int(since+1-oldest)) % len(sh.ring)
		n := copy(tr.Records, sh.ring[i:])
		copy(tr.Records[n:], sh.ring)
	}
	return tr, nil
}

// FeedHeads reports each shard's journal feed head — its version, the seq
// of the last record emitted, moved once more by each wholesale replace; 0
// when the shard has had neither since Open — or nil when the engine was
// built without WithJournalFeed. An owner's head is the target a follower
// of the shard must reach to be fully caught up.
func (e *Engine) FeedHeads() []uint64 {
	if e.feedCap == 0 {
		return nil
	}
	out := make([]uint64, e.nshards)
	for s, sh := range e.shards {
		out[s] = sh.gen.Load()
	}
	return out
}

// applyJournalRecord applies one replicated mutation to shard through the
// one shard write local writes take (so it is journaled to this engine's
// own Persister, indexed, and re-emitted on this engine's feed), admitted
// by admit under the shard lock. A profile or purchase of a consumer of
// another shard is refused with ErrShardMismatch.
func (e *Engine) applyJournalRecord(shard int, rec JournalRecord, admit admitFunc) error {
	if len(rec.Profiles) == 0 && len(rec.Purchases) == 0 {
		// An owner emits a record only for a write; an empty one would
		// advance the cursor past a record that moves no state and no
		// feed head.
		return errors.New("recommend: replicated record carries no profile and no purchase")
	}
	profs, err := decodeProfiles(rec.Profiles, shard, e.nshards)
	if err != nil {
		return err
	}
	return e.installShardProfiles(e.shards[shard], profs, rec.Profiles, rec.Purchases, admit)
}

// applyShardSnapshot replaces shard's entire state with data once admit
// admitted it under the shard lock: the durable buckets
// (Persister.SaveShard), then memory (replaceShardLocked), then the feed
// head. Every entry must belong to shard and follow the one before it;
// ShardData.add checks that as pages arrive.
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
	sh.retire()
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
// whether it is the owner. Observe is the Profile Agent's one write, sales
// included; a dated purchase is Observe(user, nil,
// []PurchasePair{PurchaseAt(user, product, at)}). RecordPurchase, the bare
// undated purchase (Engine.RecordPurchase), stays only for the benchmark
// harness. A write keeps the sales it is handed (the journal and the feed
// record hold them), so a caller must not change them once Observe is
// called.
type Writer interface {
	SetProfile(p *profile.Profile) error
	SetProfiles(ps []*profile.Profile) error
	Observe(userID string, evs []profile.Evidence, sales []PurchasePair) error
	RecordPurchase(userID, productID string) error
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

// Observe makes the consumer's Observe on the owning server.
func (r *Router) Observe(userID string, evs []profile.Evidence, sales []PurchasePair) error {
	w, err := r.writerFor(userID)
	if err != nil {
		return err
	}
	return w.Observe(userID, evs, sales)
}

// RecordPurchase records the bare purchase on the owning server.
func (r *Router) RecordPurchase(userID, productID string) error {
	return r.Observe(userID, nil, []PurchasePair{{UserID: userID, ProductID: productID}})
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
// budget; zero means the engine's default (maxBatchBytes).
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

// pullShard tails f's shard from owner once and applies what came back. A
// cursor the owner's feed cannot serve is paged in (pullShardPaged) and
// tailed once more from the pin, never paged twice in one pull.
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

	var (
		cur replCursor
		tr  TailResult
	)
	for paged := false; ; paged = true {
		r.mu.Lock()
		cur = f.cur
		r.mu.Unlock()
		if tr, err = r.peers[owner].JournalTail(ctx, shard, cur.epoch, cur.seq); err != nil {
			return fmt.Errorf("recommend: tailing shard %d from server %d: %w", shard, owner, err)
		}
		if tr.Shards != r.e.nshards {
			return fmt.Errorf("%w: owner has %d shards, follower %d", ErrShardMismatch, tr.Shards, r.e.nshards)
		}
		if !tr.Paged {
			break
		}
		if paged {
			// The owner's feed no longer reaches the pin just installed:
			// its head is lag, and the next pull pages again.
			r.mu.Lock()
			f.noteOwnerHead(tr.Seq)
			r.mu.Unlock()
			return nil
		}
		if err := r.pullShardPaged(ctx, f, owner, tr.Epoch, tr.Seq); err != nil {
			return err
		}
		// The owner kept writing while the pages crossed: tail once more,
		// from the pin, so the writes are applied or counted as lag.
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

// pagedTransfer is the saved progress of one interrupted paged transfer:
// the pin it runs under, the continuation token to ask for next, and the
// pages assembled so far. Saving it across pulls means a bootstrap too
// large for one pull's context (the background loop bounds each Sync) makes
// forward progress every tick instead of re-downloading from scratch. It
// resumes while the owner's feed epoch is the one it was pinned under; if
// the owner dropped the pin meanwhile, the continuation comes back at
// another pin and the pull ends.
type pagedTransfer struct {
	epoch, seq uint64
	token      string
	data       ShardData
}

// pullShardPaged transfers shard's state from owner in bounded pages, all
// cut from the pin the owner's first page carries, decoding each as it
// arrives and applying the assembled ShardData wholesale at the pin. The
// marker's (epoch, seq) is where the owner's head stood when it answered
// the tail; the pin may sit past it. A continuation answered at another pin
// means the owner dropped this one: the assembled pages are discarded, and
// the pull ends with an error, so the next one starts again from its marker.
func (r *Replicator) pullShardPaged(ctx context.Context, f *follower, owner int, epoch, seq uint64) error {
	shard := f.st.Shard
	var data ShardData
	token := ""
	r.mu.Lock()
	f.noteOwnerHead(seq)
	if x := f.xfer; x != nil && x.epoch == epoch {
		seq, token, data = x.seq, x.token, x.data
	}
	f.xfer = nil
	r.mu.Unlock()
	for {
		pg, err := r.peers[owner].SnapshotPage(ctx, shard, epoch, seq, token)
		if err != nil {
			// Save progress: if the pin is still kept on the next pull, the
			// transfer resumes at this token instead of starting over.
			r.mu.Lock()
			f.xfer = &pagedTransfer{epoch: epoch, seq: seq, token: token, data: data}
			r.mu.Unlock()
			return fmt.Errorf("recommend: paging shard %d snapshot from server %d: %w", shard, owner, err)
		}
		if pg.Shards != r.e.nshards {
			return fmt.Errorf("%w: owner has %d shards, follower %d", ErrShardMismatch, pg.Shards, r.e.nshards)
		}
		if token == "" {
			epoch, seq = pg.Epoch, pg.Seq
			r.mu.Lock()
			f.noteOwnerHead(seq)
			r.mu.Unlock()
		} else if pg.Epoch != epoch || pg.Seq != seq {
			return fmt.Errorf("recommend: shard %d snapshot pin (%x, %d) expired mid-transfer; the next pull starts again", shard, epoch, seq)
		}
		if err := data.add(shard, r.e.nshards, pg); err != nil {
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
// idempotent, and kept only for bench/ until ROADMAP item 28 deletes it.
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
// in-flight pull against a slow peer. Whoever assembles a deployment runs
// it under the context that deployment's shutdown cancels.
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

// Close stops the loop Start launched, if any, and waits; a later Start is
// a no-op. Like Start, it is kept only for bench/ until item 28.
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
