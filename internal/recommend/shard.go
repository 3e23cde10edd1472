package recommend

import (
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"agentrec/internal/catalog"
	"agentrec/internal/profile"
	"agentrec/internal/similarity"
)

// The engine partitions its community state into user-keyed shards (fnv-1a
// on the consumer id) so profile installs, purchase records, and
// recommendation reads contend only per shard, never on one engine-wide
// lock. Each shard additionally maintains an immutable view (shardView) so
// the recommendation hot path runs lock-free against a consistent picture of
// the shard: a write only notes which consumer it touched, and the first
// reader after it brings the cached view up to date by re-reading those
// consumers alone, then shares the result with every reader until the next
// write. A view also holds, per merchandise category, the list of its
// consumers with evidence there (shardView.inCategory): CF's neighbour search
// walks those lists instead of the whole community. And it lists, per
// category, the consumers who bought there without evidence there
// (shardView.strays): the only ones an out-of-taste CF read can take a
// product from.

// DefaultShards is the shard count NewEngine uses unless WithShards
// overrides it.
const DefaultShards = 16

const (
	// viewOverlayCap is how many consumers a view's overlay may hold; the
	// build that would pass it folds the overlay into a fresh base instead.
	// It bounds what every look-up in a written shard pays for the overlay,
	// and the superseded records a base keeps reachable, at this many per
	// shard.
	viewOverlayCap = 16
	// viewLogCap bounds the consumers a shard notes between two view builds.
	// A shard nobody reads, or a bulk install, stops noting here and leaves
	// the next reader a build from scratch.
	viewLogCap = 64
)

// shardOf is the shard, of shards, that userID's community state lives in.
func shardOf(userID string, shards int) int { return int(fnv32a(userID) % uint32(shards)) }

// fnv32a is the 32-bit FNV-1a hash, inlined to keep user-to-shard routing
// allocation-free.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// purchase is one entry of a consumer's purchase list: a product and the
// time of their latest purchase of it (at_epoch_ms, 0 = undated).
type purchase struct {
	product string
	at      int64
}

// consumer is everything a shard holds of one consumer: their profile with
// its precomputed fingerprint, and their purchases. A record is immutable
// once a shard installs it: every write installs a new record, sharing what
// it did not change, so views share records and never copy them.
type consumer struct {
	prof   *profile.Profile // nil: purchases only
	sum    *profile.Summary // nil with prof
	bought []purchase       // ascending by product; each entry keeps the latest at_epoch_ms
}

// find returns where productID sits, or would sit, in c's purchase list,
// and whether c bought it: "already owned" is this binary search. A nil
// record has bought nothing.
func (c *consumer) find(productID string) (int, bool) {
	if c == nil {
		return 0, false
	}
	return slices.BinarySearchFunc(c.bought, productID, func(p purchase, id string) int {
		return strings.Compare(p.product, id)
	})
}

// withPurchase returns a new record: c (nil: a consumer the shard does not
// hold yet) with a copy of its purchase list holding p, in place of an
// earlier purchase of the product, whose time it keeps when that is later.
func (c *consumer) withPurchase(p purchase) *consumer {
	i, again := c.find(p.product)
	nc := &consumer{}
	if c != nil {
		*nc = *c
	}
	rest := nc.bought[i:]
	if again {
		p.at = max(p.at, rest[0].at)
		rest = rest[1:]
	}
	nc.bought = append(append(append(make([]purchase, 0, len(nc.bought)+1), nc.bought[:i]...), p), rest...)
	return nc
}

// purchases works out, without changing anything, what recording buys in
// order leaves: each buy as the purchase list will keep it (withPurchase)
// and, with counted set, its product's new sell count beside it. The buys
// come back as they are while no buy's time moves, and as a copy once one
// does. Caller holds mu.
func (sh *shard) purchases(buys []PurchasePair, counted bool) ([]PurchasePair, []SellCount) {
	kept, sells, copied := buys, []SellCount(nil), false
	if counted {
		sells = make([]SellCount, len(buys))
	}
	for i, b := range buys {
		at, earlier := b.AtEpochMS, int64(0)
		c := sh.consumers[b.UserID]
		if j, again := c.find(b.ProductID); again {
			at = max(at, c.bought[j].at)
		}
		for _, prev := range kept[:i] { // the write's earlier buys, as kept
			if prev.ProductID == b.ProductID {
				earlier++
				if prev.UserID == b.UserID {
					at = max(at, prev.AtEpochMS)
				}
			}
		}
		if at != kept[i].AtEpochMS {
			if !copied {
				kept, copied = slices.Clone(buys), true
			}
			kept[i].AtEpochMS = at
		}
		if counted {
			sells[i] = SellCount{ProductID: b.ProductID, Total: sh.sells[b.ProductID] + earlier + 1}
		}
	}
	return kept, sells
}

// shard is one partition of the community: the records of the consumers
// that hash here.
type shard struct {
	mu        sync.RWMutex
	consumers map[string]*consumer
	sells     map[string]int64 // product -> sales by THIS shard's users

	id int // position in Engine.shards, names persister buckets

	gen  atomic.Uint64             // the shard's version and feed head: moved under mu by every state change (emit, retire)
	view atomic.Pointer[shardView] // cached immutable view; stale when gen moved, nil when only a build from scratch will do

	// The journal feed, when the engine keeps one: the records of the last
	// emits, oldest at start, the newest one seq gen, so the oldest is seq
	// gen+1-len(ring). Guarded by mu.
	ring  []JournalRecord
	start int

	// pins are the cuts paged transfers are served from (snappage.go),
	// oldest first, at most maxShardPins, each one the feed ring can still
	// tail on from. Written under mu for writing, or under mu for reading
	// and pinMu.
	pinMu sync.Mutex
	pins  []*snapPin

	// dirty lists the consumers written since view was built (meaningless
	// while view is nil). Writers append under mu; the one view builder, who
	// holds build and mu for reading — so no writer runs beside it — empties
	// it once the view it stores covers them.
	dirty []string
	build sync.Mutex // one view builder at a time; taken before mu, never by a writer

	patches  atomic.Uint64 // views brought up to date from the previous one
	rebuilds atomic.Uint64 // bases built: from scratch, or an overlay folded in
}

func newShard(id int) *shard {
	return &shard{
		id:        id,
		consumers: make(map[string]*consumer),
		sells:     make(map[string]int64),
	}
}

// emit commits one state change to the shard: it moves gen and returns the
// new seq. With a journal feed (cap > 0) it retains rec, stamped with that
// seq, as the feed's record of it: appended until the ring holds cap
// records, then over the oldest in place, so a full ring's emit allocates
// nothing. A record overwritten drops the pin that needed it. Caller holds
// mu for writing.
func (sh *shard) emit(cap int, rec JournalRecord) uint64 {
	seq := sh.gen.Add(1)
	if cap == 0 {
		return seq
	}
	rec.Seq = seq
	if len(sh.ring) < cap {
		sh.ring = append(sh.ring, rec)
	} else {
		sh.ring[sh.start] = rec
		sh.start = (sh.start + 1) % len(sh.ring)
		if len(sh.pins) > 0 && sh.pins[0].seq+uint64(len(sh.ring)) < seq {
			sh.pins = slices.Delete(sh.pins, 0, 1)
		}
	}
	return seq
}

// retire marks a wholesale replace: it moves gen once, with no record, and
// drops the feed's retained records, which no longer lead to the shard's
// state, and every snapshot pin, so no pin or cursor taken before the
// replace matches after it. Caller holds mu for writing.
func (sh *shard) retire() {
	sh.gen.Add(1)
	sh.ring, sh.start, sh.pins = nil, 0, nil
}

// noteWrite records that userID's record was replaced, for the next view
// build. Caller holds mu for writing. The log is bounded: a shard written
// viewLogCap times with no reader between gives its cached view up.
func (sh *shard) noteWrite(userID string) {
	if sh.view.Load() == nil {
		return
	}
	if len(sh.dirty) >= viewLogCap {
		sh.dropView()
		return
	}
	sh.dirty = append(sh.dirty, userID)
}

// dropView forgets the cached view, so the next reader builds from the shard
// map alone: for writes that replace the map wholesale. Views readers
// already hold are untouched. Caller holds mu for writing.
func (sh *shard) dropView() {
	sh.view.Store(nil)
	sh.dirty = sh.dirty[:0]
}

// viewBase is the bulk of a view: every consumer of the shard as of some
// build, shared unchanged by each view patched from it.
type viewBase struct {
	consumers map[string]*consumer

	orderOnce     sync.Once
	order         []*profile.Summary // see shardView.inOrder
	cats          catLists           // see shardView.inCategory
	unlistedOnce  sync.Once
	unlistedCands []similarity.Candidate // see shardView.unlisted
	strayLists    strayLists             // see shardView.strays
}

// shardView is an immutable snapshot of one shard: a base, and over it the
// consumers written since the base was built, whose records win. Nothing in
// a view is ever written after it is published, so a reader holding one
// keeps reading exactly what it read first whatever the shard does next.
type shardView struct {
	gen  uint64
	base *viewBase
	over map[string]*consumer // at most viewOverlayCap consumers

	orderOnce     sync.Once
	order         []*profile.Summary // see inOrder
	cats          catLists           // see inCategory
	unlistedOnce  sync.Once
	unlistedCands []similarity.Candidate // see unlisted
	strayLists    strayLists             // see strays
}

// catLists holds the category lists a view or a base has built so far. A
// list is built once, by the first read that asks for it, and then
// published, so a read of a built list takes no lock.
type catLists struct {
	mu    sync.Mutex // one builder at a time
	built atomic.Pointer[map[string][]similarity.Candidate]
}

// get returns cat's list, built by build if no read has asked for it yet.
func (c *catLists) get(cat string, build func() []similarity.Candidate) []similarity.Candidate {
	if m := c.built.Load(); m != nil {
		if list, ok := (*m)[cat]; ok {
			return list
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var old map[string][]similarity.Candidate
	if m := c.built.Load(); m != nil {
		old = *m
	}
	if list, ok := old[cat]; ok {
		return list
	}
	list := build()
	m := make(map[string][]similarity.Candidate, len(old)+1)
	maps.Copy(m, old)
	m[cat] = list
	c.built.Store(&m)
	return list
}

// candidateOf is the one place a stored summary becomes a similarity
// candidate: everything the scorer can use rides along by reference, with ty
// the consumer's preference value in the category being searched.
func candidateOf(sum *profile.Summary, ty float64) similarity.Candidate {
	return similarity.Candidate{UserID: sum.UserID, Vec: sum.Vec, Ty: ty, Norm: sum.Norm}
}

// consumer returns the view's record for userID, nil when it has none.
func (v *shardView) consumer(userID string) *consumer {
	if c, ok := v.over[userID]; ok {
		return c
	}
	return v.base.consumers[userID]
}

// resummarized returns, sorted, the overlay's consumers whose summary is not
// the one the base holds (a profile install; a purchase keeps the summary)
// and for which keep holds of the old or the new summary.
func (v *shardView) resummarized(keep func(*profile.Summary) bool) []string {
	var ids []string
	for id, c := range v.over {
		var old *profile.Summary
		if b := v.base.consumers[id]; b != nil {
			old = b.sum
		}
		if c.sum != old && (keep(old) || keep(c.sum)) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// inOrder returns the view's summaries in UserID order, for the readers
// that walk every consumer with a profile: above all the full-community
// neighbour scan. Consumers are summarized in the order they arrive, so
// walking them by id walks their vectors roughly in address order, where
// ranging over the map jumps about the heap, differently on every run. The
// order is worked out on the first read that asks: sorted once per base,
// and per view one copy of that with the overlay's re-summarized consumers
// spliced in.
func (v *shardView) inOrder() []*profile.Summary {
	v.orderOnce.Do(func() {
		v.order = v.base.inOrder()
		ids := v.resummarized(func(s *profile.Summary) bool { return s != nil })
		if len(ids) == 0 {
			return
		}
		v.order = spliceByID(v.order, ids,
			func(s *profile.Summary) string { return s.UserID },
			func(id string) (*profile.Summary, bool) { s := v.over[id].sum; return s, s != nil })
	})
	return v.order
}

// inOrder returns the base's summaries in UserID order.
func (b *viewBase) inOrder() []*profile.Summary {
	b.orderOnce.Do(func() {
		b.order = make([]*profile.Summary, 0, len(b.consumers))
		for _, c := range b.consumers {
			if c.sum != nil {
				b.order = append(b.order, c.sum)
			}
		}
		slices.SortFunc(b.order, func(a, b *profile.Summary) int { return strings.Compare(a.UserID, b.UserID) })
	})
	return b.order
}

// inCategory returns the view's consumers with evidence in cat (a positive
// preference value there), in UserID order, each as the scorer takes them.
// Under the Fig 4.5 gate these are the only consumers a search in cat can
// score, so CF walks this list instead of the shard. A base filters its
// sorted consumers once per category; a view whose overlay changed some
// consumer's evidence in cat splices those few into a copy of the base's
// list, and any other view shares the base's list as it is.
func (v *shardView) inCategory(cat string) []similarity.Candidate {
	list := v.base.inCategory(cat)
	if len(v.over) == 0 {
		return list
	}
	return v.cats.get(cat, func() []similarity.Candidate {
		has := func(s *profile.Summary) bool { return s != nil && s.Prefs[cat] > 0 }
		ids := v.resummarized(has)
		if len(ids) == 0 {
			return list
		}
		return spliceByID(list, ids,
			func(c similarity.Candidate) string { return c.UserID },
			func(id string) (similarity.Candidate, bool) {
				s := v.over[id].sum
				if !has(s) {
					return similarity.Candidate{}, false
				}
				return candidateOf(s, s.Prefs[cat]), true
			})
	})
}

// inCategory is shardView.inCategory for a view with no overlay.
func (b *viewBase) inCategory(cat string) []similarity.Candidate {
	return b.cats.get(cat, func() []similarity.Candidate {
		var list []similarity.Candidate
		for _, s := range b.inOrder() {
			if ty := s.Prefs[cat]; ty > 0 {
				list = append(list, candidateOf(s, ty))
			}
		}
		return list
	})
}

// unlisted reports whether sum may score in a category whose list it is
// not on: it has a negative weight (a category's preference value can then
// hide a positive term), two of its terms share an id (Summary keeps the
// heavier, which can hide a negative one), or a category named with a '/'
// (its ids can then spell another category's, "a/b"+"t" as "a"+"b/t").
// Neither Observe nor the workloads make one, but SetProfile and a peer's
// profile can.
func unlisted(sum *profile.Summary) bool {
	if len(sum.Vec.IDs) != sum.Terms {
		return true
	}
	for _, w := range sum.Vec.Weights {
		if w < 0 {
			return true
		}
	}
	for cat := range sum.Prefs {
		if strings.Contains(cat, "/") {
			return true
		}
	}
	return false
}

// unlisted returns the view's consumers for whom unlisted holds, in UserID
// order, each as the scorer takes them: the ones a shared-category walk
// must visit whatever their category lists, normally none. A base filters
// its sorted consumers once; a view whose overlay changed whether some
// consumer is unlisted splices those few into a copy of the base's list.
func (v *shardView) unlisted() []similarity.Candidate {
	list := v.base.unlisted()
	if len(v.over) == 0 {
		return list
	}
	v.unlistedOnce.Do(func() {
		v.unlistedCands = list
		is := func(s *profile.Summary) bool { return s != nil && unlisted(s) }
		if ids := v.resummarized(is); len(ids) > 0 {
			v.unlistedCands = spliceByID(list, ids,
				func(c similarity.Candidate) string { return c.UserID },
				func(id string) (similarity.Candidate, bool) {
					s := v.over[id].sum
					if !is(s) {
						return similarity.Candidate{}, false
					}
					return candidateOf(s, 0), true
				})
		}
	})
	return v.unlistedCands
}

// unlisted is shardView.unlisted for a view with no overlay.
func (b *viewBase) unlisted() []similarity.Candidate {
	b.unlistedOnce.Do(func() {
		for _, s := range b.inOrder() {
			if unlisted(s) {
				b.unlistedCands = append(b.unlistedCands, candidateOf(s, 0))
			}
		}
	})
	return b.unlistedCands
}

// strays returns the view's stray buyers per category, in UserID order,
// each as the scorer takes them (Ty = 0): the consumers with a summary who
// bought a product items files under a category while holding no evidence
// there. Under the Fig 4.5 gate a CF read in a category where the target
// has no evidence admits only consumers with none there either, and keeps
// only their purchases in the category, so the category's stray buyers are
// the only neighbours who can put a product into its answer. A base builds
// every category's list in one walk of its consumers' purchases, on the
// first read that asks. A view with an overlay takes the base's lists less
// the overlay's consumers, and adds back those of them who are stray
// buyers now: every overlay consumer, since a purchase keeps the summary
// and resummarized would miss it. The lists hold for one catalogue view,
// since a product that moves category moves its buyers.
func (v *shardView) strays(items *catalog.View) map[string][]similarity.Candidate {
	base := v.base.strayLists.get(items, func() map[string][]similarity.Candidate {
		return withStrays(nil, v.base.consumers, items)
	})
	if len(v.over) == 0 {
		return base
	}
	return v.strayLists.get(items, func() map[string][]similarity.Candidate {
		return withStrays(base, v.over, items)
	})
}

// strayLists holds the stray-buyer lists a view or a base built last, and
// the catalogue view they were built against. A read against another
// catalogue view builds them again.
type strayLists struct {
	mu    sync.Mutex // one builder at a time
	built atomic.Pointer[strayIndex]
}

// strayIndex is one build of the stray-buyer lists: per category, for the
// catalogue view items.
type strayIndex struct {
	items *catalog.View
	lists map[string][]similarity.Candidate
}

// get returns the lists built against items, built by build if the last
// build was against another catalogue view or there was none.
func (l *strayLists) get(items *catalog.View, build func() map[string][]similarity.Candidate) map[string][]similarity.Candidate {
	if x := l.built.Load(); x != nil && x.items == items {
		return x.lists
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if x := l.built.Load(); x != nil && x.items == items {
		return x.lists
	}
	x := &strayIndex{items: items, lists: build()}
	l.built.Store(x)
	return x.lists
}

// withStrays returns a copy of lists (stray-buyer lists, see
// shardView.strays) without the consumers of cs, and with those of them
// who are stray buyers against items.
func withStrays(lists map[string][]similarity.Candidate, cs map[string]*consumer, items *catalog.View) map[string][]similarity.Candidate {
	m := make(map[string][]similarity.Candidate, len(lists))
	for cat, l := range lists {
		m[cat] = slices.DeleteFunc(slices.Clone(l), func(c similarity.Candidate) bool {
			_, ok := cs[c.UserID]
			return ok
		})
	}
	for _, c := range cs {
		if c == nil || c.sum == nil {
			continue
		}
		for _, p := range c.bought {
			it, ok := items.Lookup(p.product)
			if !ok || c.sum.Prefs[it.Category] > 0 {
				continue
			}
			// A consumer's categories are appended together, so one already
			// on the list is its last entry.
			l := m[it.Category]
			if n := len(l); n == 0 || l[n-1].UserID != c.sum.UserID {
				m[it.Category] = append(l, candidateOf(c.sum, 0))
			}
		}
	}
	for cat, l := range m {
		if len(l) == 0 {
			delete(m, cat)
			continue
		}
		slices.SortFunc(l, func(a, b similarity.Candidate) int { return strings.Compare(a.UserID, b.UserID) })
	}
	return m
}

// spliceByID returns a copy of old, which is sorted by idOf, with every
// consumer in ids (sorted, distinct) brought up to date: their old entry, if
// they had one, dropped, and what cur knows of them now, if anything, put in
// its place. It costs one search of old per id and one copy of old, never a
// sort.
func spliceByID[T any](old []T, ids []string, idOf func(T) string, cur func(id string) (T, bool)) []T {
	list := make([]T, 0, len(old)+len(ids))
	for _, id := range ids {
		n, had := slices.BinarySearchFunc(old, id, func(e T, id string) int {
			return strings.Compare(idOf(e), id)
		})
		list = append(list, old[:n]...)
		old = old[n:]
		if had {
			old = old[1:]
		}
		if e, ok := cur(id); ok {
			list = append(list, e)
		}
	}
	return append(list, old...)
}

// snapshot returns the current immutable view. The fast path — no write
// since the cached view was built — is two atomic loads. Otherwise one
// reader at a time (build) brings the view up to date under the shard's
// read lock, and the readers that queued behind it take what it stored.
func (sh *shard) snapshot() *shardView {
	if v := sh.view.Load(); v != nil && v.gen == sh.gen.Load() {
		return v
	}
	sh.build.Lock()
	defer sh.build.Unlock()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	prev := sh.view.Load()
	if prev != nil && prev.gen == sh.gen.Load() {
		return prev
	}
	v := &shardView{gen: sh.gen.Load()}
	if prev == nil {
		v.base = sh.newBase()
		sh.rebuilds.Add(1)
	} else {
		v.base, v.over = prev.base, sh.patched(prev)
		if len(v.over) > viewOverlayCap {
			v.base, v.over = prev.base.folded(v.over), nil
			sh.rebuilds.Add(1)
		} else {
			sh.patches.Add(1)
		}
	}
	sh.dirty = sh.dirty[:0]
	sh.view.Store(v)
	return v
}

// newBase copies the shard as it stands: the O(shard) build, which only the
// first reader of a shard, or of one whose view was dropped, pays. It clones
// one map of pointers: records are immutable, so the base shares every one.
// Caller holds mu.
func (sh *shard) newBase() *viewBase {
	return &viewBase{consumers: maps.Clone(sh.consumers)}
}

// patched returns prev's overlay brought up to date: a copy of it with every
// consumer in the dirty log read again from the shard map. Caller holds mu.
func (sh *shard) patched(prev *shardView) map[string]*consumer {
	over := make(map[string]*consumer, len(prev.over)+len(sh.dirty))
	maps.Copy(over, prev.over)
	for _, id := range sh.dirty {
		over[id] = sh.consumers[id]
	}
	return over
}

// folded returns a base holding b with over applied. It clones one map of
// pointers; every consumer over does not name keeps the very record b holds.
func (b *viewBase) folded(over map[string]*consumer) *viewBase {
	nb := &viewBase{consumers: maps.Clone(b.consumers)}
	maps.Copy(nb.consumers, over)
	return nb
}
