// Package recommend implements the recommendation information generation of
// §4.4 and the filtering techniques §2.3 surveys:
//
//   - CF: collaborative filtering in the paper's form — find consumers whose
//     profiles are similar (Fig 4.5, with the preference-value discard
//     gate), then recommend the merchandise those neighbours acquired.
//   - IF: information filtering — match merchandise characteristic terms
//     against the consumer's own learned profile (Fig 4.4).
//   - Hybrid: a weighted mix of both, the combination §2.3's reference [5]
//     (Good et al.) argues for.
//   - TopSellers: the non-personalized "top overall sellers" baseline §2.3
//     opens with.
//
// The engine also exposes RecommendForQuery, the exact operation of the
// Fig 4.2 workflow: re-rank the merchandise a Mobile Buyer Agent brought
// back from the marketplaces using the similar consumers' preferences.
//
// Cold start (§2.3's known CF limitation) is handled by explicit fallback:
// a consumer with no usable profile gets top sellers, and the result says
// so. Experiment C4 measures the degradation.
//
// # Scaling architecture
//
// The engine is built to serve a large community concurrently:
//
//   - Community state is partitioned into user-keyed shards (fnv-1a on the
//     consumer id), each with its own lock, so writes contend per shard.
//   - Recommendation requests run lock-free against immutable Snapshots
//     assembled from per-shard views, which a write dirties one consumer
//     of and the next reader patches. A product's sell count is the sum of
//     what each shard's consumers bought, read one shard lock at a time.
//   - Each view lists, per category, its consumers with evidence there, so
//     CF's neighbour search iterates only the consumers active in the
//     target category — an exact restriction under the Fig 4.5 gate, not
//     an approximation.
//   - With persistence (Open + WithPersistence) every mutation is
//     journaled to a WAL-backed store before it mutates memory
//     (journal-first: an acknowledged write is durable) and state is
//     recovered on construction (persist.go).
//   - With a journal feed (WithJournalFeed) the engine supports per-shard
//     ownership across servers: writes route to a shard's owning server
//     (Router), followers tail the owner's journal and converge to
//     identical state (Replicator; replicate.go).
//
// # Invariants
//
//   - Recommendation results are identical for any shard count, with or
//     without persistence, on owner or caught-up follower.
//   - Lock order: shard → journal feed. No path acquires these in
//     reverse, and no path holds two shard locks at once.
//   - A shard's writes are totally ordered by its lock; the journal, the
//     feed, and memory all observe that one order. Sell counts are
//     attributed to the buyer's shard durably, so one shard's journal
//     fully determines its replica; the served totals are the sum over
//     shards.
//   - A consumer's record (profile, summary and purchase list) and a
//     published view are immutable in place: every write installs a new
//     record, sharing what it did not change.
//
// See DESIGN.md for the full architecture map.
package recommend

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"agentrec/internal/catalog"
	"agentrec/internal/ops"
	"agentrec/internal/profile"
	"agentrec/internal/similarity"
)

// Strategy selects a recommendation technique.
type Strategy int

// Strategies. StrategyAuto picks Hybrid with cold-start fallback.
const (
	StrategyAuto Strategy = iota
	StrategyCF
	StrategyIF
	StrategyHybrid
	StrategyTopSeller
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyCF:
		return "cf"
	case StrategyIF:
		return "if"
	case StrategyHybrid:
		return "hybrid"
	case StrategyTopSeller:
		return "topseller"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Errors reported by the engine.
var (
	ErrUnknownUser     = errors.New("recommend: unknown user")
	ErrUnknownStrategy = errors.New("recommend: unknown strategy")
)

// Rec is one recommended product.
type Rec struct {
	ProductID string
	Score     float64
	Source    string // which technique produced it, e.g. "cf", "if", "topseller-fallback"
}

// Option configures an Engine.
type Option func(*Engine)

// WithNeighbors sets the CF neighbourhood size k (default 10).
func WithNeighbors(k int) Option {
	return func(e *Engine) {
		if k > 0 {
			e.k = k
		}
	}
}

// WithTolerance sets the Fig 4.5 discard tolerance (default 0.5). At 1 the
// gate never fires (|Tx-Ty|/max <= 1 always): that is the F4.5 ablation,
// plain cosine neighbours. Open refuses a tolerance outside [0, 1].
func WithTolerance(tol float64) Option {
	return func(e *Engine) { e.tolerance = tol }
}

// WithHybridWeight sets the CF share in the hybrid mix, in [0,1]
// (default 0.6).
func WithHybridWeight(w float64) Option {
	return func(e *Engine) {
		if w >= 0 && w <= 1 {
			e.hybridW = w
		}
	}
}

// WithShards sets the number of user-keyed state shards (default
// DefaultShards). More shards mean less write contention; recommendations
// are identical for any shard count.
func WithShards(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.nshards = n
		}
	}
}

// NeighborSearch is the mode parameter of Engine.Neighbors. It has one
// value, SearchExact: CF's neighbour search is always the exact scan of the
// consumers with evidence in the category (or of the whole community when
// the gate is ablated).
type NeighborSearch int

// SearchExact is the one neighbour search mode.
const SearchExact NeighborSearch = 0

// Engine holds the consumer community's profiles and transaction history
// and answers recommendation requests. Safe for concurrent use: state is
// partitioned into user-keyed shards and reads run against immutable
// snapshots (see Snapshot). With WithPersistence (construct via Open) every
// mutation is write-through journaled to a WAL-backed store and the
// community is recovered on construction; see persist.go. Every shard is
// always in memory.
type Engine struct {
	catalog   *catalog.Catalog
	k         int
	tolerance float64
	hybridW   float64
	nshards   int

	shards []*shard // community state, fnv(userID) % nshards

	// Durability (nil/zero for a memory-only engine; see persist.go).
	persist   Persister
	stateDir  string
	errMu     sync.Mutex // guards stickyErr
	stickyErr error

	// Automatic journal compaction (zero Ratio = manual only; compact.go).
	compactPolicy CompactionPolicy
	compactCheck  atomic.Uint64 // journaled writes, for CheckEvery sampling
	compacting    atomic.Bool   // single-flight guard for the background rewrite
	compactGate   sync.Mutex    // orders compactWG.Add against Close's Wait
	compactClosed bool          // Close ran: no new background compactions
	compactWG     sync.WaitGroup
	compactions   atomic.Uint64
	compactNanos  atomic.Int64 // duration of the most recent compaction

	// Ownership (ownership.go): the table every write is admitted against
	// and this server's index in it, the one-server map until bound.
	ownMu sync.Mutex // serializes BindOwnership
	own   atomic.Pointer[binding]

	// Replication (nil unless WithJournalFeed; see replicate.go).
	feed    *journalFeed
	feedCap int

	// Event plane (nil unless WithEventBus; see events.go).
	events      *ops.Bus
	eventServer int
	deltaMu     sync.Mutex          // guards lastTop
	lastTop     map[string][]string // served top-N per (user, category, strategy), for delta detection
}

// NewEngine returns an engine over cat, and panics where Open would fail:
// on a tolerance outside [0, 1], or when recovery under a persistence
// option fails. Build durable engines with Open.
func NewEngine(cat *catalog.Catalog, opts ...Option) *Engine {
	e, err := Open(cat, opts...)
	if err != nil {
		panic(fmt.Sprintf("recommend: NewEngine: %v", err))
	}
	return e
}

// Open is NewEngine with error reporting: required for engines built with
// WithPersistence / WithPersister, whose recovery replay can fail. A
// tolerance outside [0, 1], NaN included, is refused with a wrapped
// similarity.ErrBadThreshold. The caller should Close a persistent engine
// when done with it.
func Open(cat *catalog.Catalog, opts ...Option) (*Engine, error) {
	e := &Engine{
		catalog:   cat,
		k:         10,
		tolerance: 0.5,
		hybridW:   0.6,
		nshards:   DefaultShards,
	}
	for _, opt := range opts {
		opt(e)
	}
	if err := similarity.CheckTolerance(e.tolerance); err != nil {
		return nil, err
	}
	e.shards = make([]*shard, e.nshards)
	for i := 0; i < e.nshards; i++ {
		e.shards[i] = newShard(i)
	}
	e.own.Store(&binding{table: NewOwnershipTable(StaticOwnership(e.nshards, 1))})
	if e.feedCap > 0 {
		feed, err := newJournalFeed(e.nshards, e.feedCap)
		if err != nil {
			return nil, err
		}
		e.feed = feed
	}
	if e.persist == nil && e.stateDir != "" {
		p, err := openPersister(e.stateDir, e.nshards)
		if err != nil {
			return nil, err
		}
		e.persist = p
	}
	if e.persist != nil {
		if err := e.recover(); err != nil {
			e.persist.Close()
			return nil, err
		}
	}
	return e, nil
}

func (e *Engine) shardFor(userID string) *shard {
	return e.shards[e.ShardOf(userID)]
}

// ShardOf reports which shard userID's community state lives in. Write
// routing across replicated servers keys ownership off this.
func (e *Engine) ShardOf(userID string) int { return shardOf(userID, e.nshards) }

// Shards reports the engine's shard count. Replication requires every
// server to agree on it.
func (e *Engine) Shards() int { return e.nshards }

// SetProfile installs or replaces a consumer's profile. The engine keeps a
// deep copy; later mutation by the caller has no effect. A profile whose
// user id is empty or holds a NUL, or whose user id or any key — category,
// sub-category or term — is not valid UTF-8, is refused with ErrBadKey, and
// one with a NaN or infinite term weight with profile.ErrBadEvidence,
// memory-only or durable.
//
// With persistence the profile is journaled (durably) before the in-memory
// install. Like the rest of the public write API it is the owner's local
// write: admitted under the shard lock only while this server owns the
// shard under the engine's ownership table and its lease is live, else
// refused with ErrNotOwner or ErrLeaseExpired. A lone engine owns every
// shard.
func (e *Engine) SetProfile(p *profile.Profile) error { return e.SetProfiles([]*profile.Profile{p}) }

// SetProfiles bulk-installs profiles: one shard lock acquisition and one
// durable batch per touched shard, instead of one each per profile.
// Equivalent to calling SetProfile for each element in order (later
// duplicates win). This is the SeedCommunity path: installing a warm
// community one profile at a time pays nshards times the locking and
// journaling it needs to.
func (e *Engine) SetProfiles(ps []*profile.Profile) error {
	return e.setProfiles(ps, nil, (*OwnershipTable).admitOwner)
}

// setProfiles installs ps, encoded as encs. nil encs means ps are still
// the caller's: each is installed as a copy and encoded by the engine.
func (e *Engine) setProfiles(ps []*profile.Profile, encs [][]byte, admit admitFunc) error {
	byShard := make([][]*profile.Profile, e.nshards)
	encShard := make([][][]byte, e.nshards)
	for i, p := range ps {
		s := e.ShardOf(p.UserID)
		if encs == nil {
			// A key that is not valid UTF-8 would be journaled as another
			// one, a non-finite weight not at all (Profile.CloneUTF8), and
			// a user id no journal can key would stop every follower, so
			// the whole batch is refused before anything is written, on
			// every engine. decodeProfiles checked profiles from encs.
			cp, valid, err := p.CloneUTF8()
			if err != nil {
				return fmt.Errorf("recommend: %w", err)
			}
			if !valid || !validID(p.UserID) {
				return fmt.Errorf("%w: a key of user %q's profile", ErrBadKey, p.UserID)
			}
			p = cp
		} else {
			encShard[s] = append(encShard[s], encs[i])
		}
		byShard[s] = append(byShard[s], p)
	}
	// A batch refused on arrival is refused whole, so a misrouted batch
	// cannot half-apply. This is only an early refusal: each shard is
	// admitted again under its lock, where the decision is made.
	b := e.own.Load()
	for i, group := range byShard {
		if len(group) > 0 {
			if err := admit(b.table, i, b.self); err != nil {
				return err
			}
		}
	}
	for i, group := range byShard {
		if len(group) == 0 {
			continue
		}
		if err := e.installShardProfiles(e.shards[i], group, encShard[i], admit); err != nil {
			return err
		}
	}
	return nil
}

// installShardProfiles installs profs — private copies, all belonging to
// sh, encoded as encs (nil: here, if a sink needs them) — journal-first,
// then as new records into the shard map and the journal feed, all inside
// the shard critical section, once admit admitted the write there. Shared by every profile
// write and the replication apply path.
func (e *Engine) installShardProfiles(sh *shard, profs []*profile.Profile, encs [][]byte, admit admitFunc) error {
	if encs == nil && (e.persist != nil || e.feed != nil) {
		var err error
		if encs, err = encodeProfiles(profs); err != nil {
			return err
		}
	}
	if err := e.lockShardW(sh, admit); err != nil {
		return err
	}
	if e.persist != nil {
		if err := e.persist.SaveProfiles(sh.id, profs, encs); err != nil {
			sh.mu.Unlock()
			return err
		}
	}
	for _, p := range profs {
		c := &consumer{prof: p, sum: p.Summary()}
		if old := sh.consumers[p.UserID]; old != nil {
			c.bought = old.bought
		}
		sh.consumers[p.UserID] = c
		sh.noteWrite(p.UserID)
	}
	seq := sh.gen.Add(1)
	if e.feed != nil {
		// Bulk installs split into several bounded records, so no single
		// journal record outgrows a network frame when peers tail the feed.
		for _, chunk := range chunkEncoded(encs, maxFeedRecordBytes) {
			seq = e.feed.emit(sh.id, JournalRecord{Op: OpProfiles, Profiles: chunk})
		}
	}
	sh.mu.Unlock()
	if e.events != nil {
		var payload int
		for _, enc := range encs {
			payload += len(enc)
		}
		e.publishJournal(sh.id, seq, OpProfiles, len(profs), payload)
	}
	e.noteJournalWrite()
	return nil
}

// Profile returns a copy of the stored profile for userID.
func (e *Engine) Profile(userID string) (*profile.Profile, error) {
	sh := e.shardFor(userID)
	sh.mu.RLock()
	c := sh.consumers[userID]
	sh.mu.RUnlock()
	if c == nil || c.prof == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownUser, userID)
	}
	return c.prof.Clone(), nil
}

// RecordPurchase is RecordPurchaseAt for a purchase whose time is not
// known: it feeds the CF history, the top-seller counts and TiedSales, and
// never trends.
func (e *Engine) RecordPurchase(userID, productID string) error {
	return e.RecordPurchaseAt(userID, productID, time.Time{})
}

// Users returns the ids of all consumers with a profile, sorted.
func (e *Engine) Users() []string { return e.Snapshot().Users() }

// Stats returns the engine's current sizing and journal state in the ops
// model.
func (e *Engine) Stats() ops.EngineSnapshot {
	st := ops.EngineSnapshot{Shards: e.nshards}
	for _, sh := range e.shards {
		sh.mu.RLock()
		for _, c := range sh.consumers {
			if c.prof != nil {
				st.Users++
			}
		}
		sh.mu.RUnlock()
		st.ViewPatches += sh.patches.Load()
		st.ViewRebuilds += sh.rebuilds.Load()
	}
	e.fillJournalSizing(&st)
	return st
}

// Recommend answers with up to n products for userID in category using the
// given strategy. category may be empty for cross-category recommendations
// (CF then skips the discard gate's category test by using the consumer's
// top category). StrategyAuto uses Hybrid and falls back to top sellers for
// cold-start consumers.
//
// With WithEventBus, a served top-N that differs from the previous answer
// for the same (user, category, strategy) additionally publishes a
// KindRecDelta event (see events.go); RecommendWith stays delta-free for
// callers issuing exploratory reads against their own snapshots.
func (e *Engine) Recommend(strategy Strategy, userID, category string, n int) ([]Rec, error) {
	if e.events == nil {
		return e.RecommendWith(e.Snapshot(), strategy, userID, category, n)
	}
	start := time.Now()
	recs, err := e.RecommendWith(e.Snapshot(), strategy, userID, category, n)
	if err == nil {
		e.publishRecDelta(strategy, userID, category, recs, time.Since(start))
	}
	return recs, err
}

// RecommendWith is Recommend against an existing Snapshot, letting callers
// issue several recommendations for one consistent community view (the
// Fig 4.2 task completion asks for both a query re-rank and cross-sell).
// Consecutive reads on one snapshot that need the same neighbours share
// one search (Snapshot.lastSearch).
func (e *Engine) RecommendWith(snap *Snapshot, strategy Strategy, userID, category string, n int) ([]Rec, error) {
	switch strategy {
	case StrategyCF:
		return e.cf(snap, userID, category, n)
	case StrategyIF:
		return e.ifilter(snap, userID, category, n)
	case StrategyHybrid:
		return e.hybrid(snap, userID, category, n)
	case StrategyTopSeller:
		return e.topSellers(category, n, "topseller"), nil
	case StrategyAuto:
		recs, err := e.hybrid(snap, userID, category, n)
		if err == nil && len(recs) > 0 {
			return recs, nil
		}
		if err != nil && !errors.Is(err, ErrUnknownUser) {
			return nil, err
		}
		return e.topSellers(category, n, "topseller-fallback"), nil
	default:
		return nil, fmt.Errorf("%w: %v", ErrUnknownStrategy, strategy)
	}
}

// neighborCategory picks the category the discard gate compares: the
// explicit one, or the consumer's strongest learned category.
func neighborCategory(p *profile.Profile, category string) string {
	if category != "" {
		return category
	}
	if top := p.TopCategories(1); len(top) > 0 {
		return top[0].Term
	}
	return ""
}

// neighbors runs the streaming neighbour search for the target record at
// the engine's tolerance. A search the snapshot has just answered is
// answered again from its memo (Snapshot.lastSearch); any other search runs
// and replaces the memo.
func (e *Engine) neighbors(snap *Snapshot, c *consumer, cat string) ([]similarity.Neighbor, error) {
	key := neighborKey{target: c, cat: cat, tol: e.tolerance}
	if m := snap.lastSearch.Load(); m != nil && m.key == key {
		return m.neighbors, nil
	}
	nbs, err := e.searchNeighbors(snap, c.sum, cat, e.tolerance)
	if err != nil {
		return nil, err
	}
	snap.lastSearch.Store(&neighborMemo{key: key, neighbors: nbs})
	return nbs, nil
}

// searchNeighbors runs one neighbour search against snap. When the
// discard gate is live (tolerance below 1) and the target has evidence in
// the category, the consumers with evidence there are an exact substitute
// for the whole community — every other consumer would be gated out anyway
// (Ty = 0 against Tx > 0). Otherwise it scans the snapshot.
func (e *Engine) searchNeighbors(snap *Snapshot, sum *profile.Summary, cat string, tol float64) ([]similarity.Neighbor, error) {
	tx := sum.Prefs[cat]
	if cat == "" || tol >= 1 || tx <= 0 {
		return similarity.TopKStream(sum.UserID, sum.Vec, tx, tol, snap.candidates(cat), e.k)
	}
	return similarity.TopKStream(sum.UserID, sum.Vec, tx, tol, snap.inCategory(cat), e.k)
}

// Neighbors exposes the CF neighbour search directly: the k most similar
// consumers to userID with respect to category (or their top category when
// empty). mode has one value, SearchExact, and is ignored.
func (e *Engine) Neighbors(userID, category string, mode NeighborSearch) ([]similarity.Neighbor, error) {
	snap := e.Snapshot()
	c := snap.profiled(userID)
	if c == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownUser, userID)
	}
	return e.searchNeighbors(snap, c.sum, neighborCategory(c.prof, category), e.tolerance)
}

// cf is user-based collaborative filtering over profile similarity.
func (e *Engine) cf(snap *Snapshot, userID, category string, n int) ([]Rec, error) {
	c := snap.profiled(userID)
	if c == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownUser, userID)
	}
	neighbors, err := e.neighbors(snap, c, neighborCategory(c.prof, category))
	if err != nil {
		return nil, err
	}

	scores := make(map[string]float64)
	for _, nb := range neighbors {
		for _, p := range snap.viewFor(nb.UserID).consumer(nb.UserID).bought {
			if _, own := c.find(p.product); own {
				continue
			}
			scores[p.product] += nb.Score
		}
	}
	return rank(scores, n, "cf"), nil
}

// ifilter is content-based information filtering: merchandise terms against
// the consumer's own profile weights.
func (e *Engine) ifilter(snap *Snapshot, userID, category string, n int) ([]Rec, error) {
	c := snap.profiled(userID)
	if c == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownUser, userID)
	}

	// The content view lists the category's products without copying any:
	// an in-taste read walks its own category, not the catalogue.
	scores := make(map[string]float64)
	for _, it := range e.catalog.View().Items(category) {
		if _, own := c.find(it.ID); own {
			continue
		}
		if s := contentScore(c.prof, it.Category, it.SubCategory, it.Terms); s > 0 {
			scores[it.ID] = s
		}
	}
	return rank(scores, n, "if"), nil
}

// contentScore is the dot product of a product's terms with the profile's
// weights for the product's category and sub-category.
func contentScore(prof *profile.Profile, category, subCategory string, terms map[string]float64) float64 {
	cat := prof.Categories[category]
	if cat == nil {
		return 0
	}
	var subTerms map[string]float64 // nil reads as all-zero
	if subCategory != "" {
		if sub := cat.Subs[subCategory]; sub != nil {
			subTerms = sub.Terms
		}
	}
	var s float64
	for t, w := range terms {
		s += w * (cat.Terms[t] + subTerms[t])
	}
	return s
}

// hybrid mixes normalized CF and IF scores with weight hybridW, both sides
// computed over the same snapshot.
func (e *Engine) hybrid(snap *Snapshot, userID, category string, n int) ([]Rec, error) {
	cfRecs, err := e.cf(snap, userID, category, -1)
	if err != nil {
		return nil, err
	}
	ifRecs, err := e.ifilter(snap, userID, category, -1)
	if err != nil {
		return nil, err
	}
	scores := make(map[string]float64, len(cfRecs)+len(ifRecs))
	for _, r := range normalize(cfRecs) {
		scores[r.ProductID] += e.hybridW * r.Score
	}
	for _, r := range normalize(ifRecs) {
		scores[r.ProductID] += (1 - e.hybridW) * r.Score
	}
	return rank(scores, n, "hybrid"), nil
}

// topSellers is the popularity baseline; own purchases are not excluded
// because it is also the anonymous fallback. A product's count is the sum
// of the sales each shard attributes to its own consumers, read under one
// shard's read lock at a time: without a category, for everything sold;
// with one, for the category's products.
func (e *Engine) topSellers(category string, n int, source string) []Rec {
	scores := make(map[string]float64)
	if category == "" {
		for _, sh := range e.shards {
			sh.mu.RLock()
			for pid, count := range sh.sells {
				scores[pid] += float64(count)
			}
			sh.mu.RUnlock()
		}
		return rank(scores, n, source)
	}
	items := e.catalog.View().Items(category)
	counts := make([]int64, len(items))
	for _, sh := range e.shards {
		sh.mu.RLock()
		for i, it := range items {
			counts[i] += sh.sells[it.ID]
		}
		sh.mu.RUnlock()
	}
	for i, it := range items {
		scores[it.ID] = float64(counts[i])
	}
	return rank(scores, n, source)
}

// rank returns the top n positive scores as recs (see byScore).
func rank(scores map[string]float64, n int, source string) []Rec {
	out := make([]Rec, 0, len(scores))
	for pid, s := range scores {
		if s > 0 {
			out = append(out, Rec{ProductID: pid, Score: s, Source: source})
		}
	}
	return topN(out, n, byScore)
}

// byScore orders recs by score descending, ties by id.
func byScore(a, b Rec) int {
	if a.Score != b.Score {
		return cmp.Compare(b.Score, a.Score)
	}
	return strings.Compare(a.ProductID, b.ProductID)
}

// topN sorts s by order and truncates it to n (n < 0 means all).
func topN[T any](s []T, n int, order func(a, b T) int) []T {
	slices.SortFunc(s, order)
	if n >= 0 && len(s) > n {
		s = s[:n]
	}
	return s
}

// normalize scales scores to [0,1] by the max.
func normalize(recs []Rec) []Rec {
	var max float64
	for _, r := range recs {
		if r.Score > max {
			max = r.Score
		}
	}
	if max == 0 {
		return recs
	}
	out := make([]Rec, len(recs))
	for i, r := range recs {
		r.Score /= max
		out[i] = r
	}
	return out
}

// RecommendForQuery performs the Fig 4.2 step: given the merchandise
// matches a Mobile Buyer Agent brought back, re-rank them for the consumer
// by combining the marketplace relevance score with the consumer community's
// preferences (neighbour ownership) and the consumer's own profile. Products
// the consumer already owns sink to the bottom rather than disappearing —
// the buyer still asked for them.
func (e *Engine) RecommendForQuery(userID string, matches []catalog.Match, n int) ([]Rec, error) {
	return e.RecommendForQueryWith(e.Snapshot(), userID, matches, n)
}

// RecommendForQueryWith is RecommendForQuery against an existing Snapshot.
func (e *Engine) RecommendForQueryWith(snap *Snapshot, userID string, matches []catalog.Match, n int) ([]Rec, error) {
	c := snap.profiled(userID)
	var neighbors []similarity.Neighbor
	if c != nil {
		cat := ""
		if len(matches) > 0 {
			cat = matches[0].Product.Category
		}
		var err error
		neighbors, err = e.neighbors(snap, c, neighborCategory(c.prof, cat))
		if err != nil {
			return nil, err
		}
	}

	nbOwn := make(map[string]float64)
	for _, nb := range neighbors {
		for _, p := range snap.viewFor(nb.UserID).consumer(nb.UserID).bought {
			nbOwn[p.product] += nb.Score
		}
	}
	var maxRel, maxNb, maxContent float64
	contents := make([]float64, len(matches))
	for i, m := range matches {
		if m.Score > maxRel {
			maxRel = m.Score
		}
		if nbOwn[m.Product.ID] > maxNb {
			maxNb = nbOwn[m.Product.ID]
		}
		if c != nil {
			contents[i] = contentScore(c.prof, m.Product.Category, m.Product.SubCategory, m.Product.Terms)
			if contents[i] > maxContent {
				maxContent = contents[i]
			}
		}
	}
	norm := func(v, max float64) float64 {
		if max == 0 {
			return 0
		}
		return v / max
	}
	out := make([]Rec, 0, len(matches))
	for i, m := range matches {
		score := 0.4*norm(m.Score, maxRel) +
			0.35*norm(nbOwn[m.Product.ID], maxNb) +
			0.25*norm(contents[i], maxContent)
		if _, own := c.find(m.Product.ID); own {
			score *= 0.1 // owned: sink, don't hide
		}
		out = append(out, Rec{ProductID: m.Product.ID, Score: score, Source: "query-rerank"})
	}
	return topN(out, n, byScore), nil
}
