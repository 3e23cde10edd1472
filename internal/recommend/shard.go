package recommend

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"agentrec/internal/profile"
)

// The engine partitions its community state into user-keyed shards (fnv-1a
// on the consumer id) so profile installs, purchase records, and
// recommendation reads contend only per shard, never on one engine-wide
// lock. Each shard additionally maintains a copy-on-read immutable view
// (shardView) so the recommendation hot path runs lock-free against a
// consistent picture of the shard: a view is rebuilt at most once per write
// generation and then shared by every reader until the next write.

// DefaultShards is the shard count NewEngine uses unless WithShards
// overrides it.
const DefaultShards = 16

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

// stored pairs an installed profile with its precomputed fingerprint. Both
// are immutable once installed: SetProfile replaces the whole entry.
type stored struct {
	prof *profile.Profile
	sum  *profile.Summary
}

// shard is one partition of the community: the profiles and purchase
// histories of the consumers that hash here.
//
// With persistence enabled a shard may be spilled: its maps dropped from
// memory while its state lives on in the engine's Persister (and its
// postings stay in the candidate index). resident is written under mu and
// read atomically so the eviction scan never takes shard locks; lastAccess
// is a logical LRU clock bumped on every access.
type shard struct {
	mu        sync.RWMutex
	profiles  map[string]*stored
	purchases map[string]map[string]int64 // user -> product -> at_epoch_ms of the latest purchase (0 = undated)
	sells     map[string]int64            // product -> sales by THIS shard's users

	id         int         // position in Engine.shards, names persister buckets
	resident   atomic.Bool // maps are in memory (always true without spilling)
	lastAccess atomic.Uint64

	gen  atomic.Uint64             // bumped under mu on every write
	view atomic.Pointer[shardView] // cached immutable view; stale when gen moved
}

func newShard(id int) *shard {
	sh := &shard{
		id:        id,
		profiles:  make(map[string]*stored),
		purchases: make(map[string]map[string]int64),
		sells:     make(map[string]int64),
	}
	sh.resident.Store(true)
	return sh
}

// shardView is an immutable snapshot of one shard. profiles entries are
// shared (they are immutable in place); purchase sets are deep-copied at
// build time so later RecordPurchase calls cannot tear a reader, and carry
// ownership only: the CF read path never asks when.
type shardView struct {
	gen       uint64
	profiles  map[string]*stored
	purchases map[string]map[string]bool

	orderOnce sync.Once
	order     []*stored // profiles' entries by UserID; see inOrder
}

// inOrder returns the view's profile entries in UserID order, for the one
// reader that walks every consumer: the full-community neighbour scan.
// Consumers are summarized in the order they arrive, so walking them by id
// walks their vectors roughly in address order, where ranging over the map
// jumps about the heap, differently on every run. The order is worked out
// on the first scan that asks, once per view: reads that follow a posting
// list never pay for it.
func (v *shardView) inOrder() []*stored {
	v.orderOnce.Do(func() {
		v.order = make([]*stored, 0, len(v.profiles))
		for _, st := range v.profiles {
			v.order = append(v.order, st)
		}
		slices.SortFunc(v.order, func(a, b *stored) int { return strings.Compare(a.sum.UserID, b.sum.UserID) })
	})
	return v.order
}

// snapshot returns the current immutable view, rebuilding it only when a
// write happened since the last build. The fast path is two atomic loads.
// A spilled shard has no materializable view: snapshot returns nil and the
// caller must fault the shard in first (eviction bumps gen, so a stale
// cached view can never satisfy the fast path).
func (sh *shard) snapshot() *shardView {
	if v := sh.view.Load(); v != nil && v.gen == sh.gen.Load() {
		return v
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if !sh.resident.Load() {
		return nil
	}
	if v := sh.view.Load(); v != nil && v.gen == sh.gen.Load() {
		return v
	}
	v := &shardView{
		gen:       sh.gen.Load(),
		profiles:  make(map[string]*stored, len(sh.profiles)),
		purchases: make(map[string]map[string]bool, len(sh.purchases)),
	}
	for id, st := range sh.profiles {
		v.profiles[id] = st
	}
	for id, set := range sh.purchases {
		cp := make(map[string]bool, len(set))
		for pid := range set {
			cp[pid] = true
		}
		v.purchases[id] = cp
	}
	sh.view.Store(v)
	return v
}

// sellShard is one partition of the product sell counts (fnv-1a on the
// product id). Counters are atomic so concurrent purchases of the same
// product never serialize beyond the map lookup; the map lock is taken for
// writing only on a product's first sale.
type sellShard struct {
	mu     sync.RWMutex
	counts map[string]*atomic.Int64
	id     int // position in Engine.sells, names the persister bucket
}

func newSellShard(id int) *sellShard {
	return &sellShard{counts: make(map[string]*atomic.Int64), id: id}
}

func (ss *sellShard) bump(productID string) { ss.add(productID, 1) }

// add moves the product's served count by delta (negative when a replica
// snapshot shrinks a shard's attributed sells).
func (ss *sellShard) add(productID string, delta int64) {
	ss.mu.RLock()
	c := ss.counts[productID]
	ss.mu.RUnlock()
	if c == nil {
		ss.mu.Lock()
		if c = ss.counts[productID]; c == nil {
			c = new(atomic.Int64)
			ss.counts[productID] = c
		}
		ss.mu.Unlock()
	}
	c.Add(delta)
}

// each calls fn for every product with a positive count.
func (ss *sellShard) each(fn func(productID string, count int64)) {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	for pid, c := range ss.counts {
		if n := c.Load(); n > 0 {
			fn(pid, n)
		}
	}
}
