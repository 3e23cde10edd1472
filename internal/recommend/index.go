package recommend

import (
	"iter"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"agentrec/internal/profile"
	"agentrec/internal/similarity"
)

// categoryIndex is the incremental candidate index: for every merchandise
// category, the posting list of consumers with a positive preference value
// there, each posting carrying the consumer's precomputed summary (flat
// vector + preference value). It is maintained on every SetProfile, so CF's
// neighbour search can iterate just the consumers active in the target
// category instead of scanning the whole community.
//
// The restriction is exact, not approximate: the Fig 4.5 gate discards any
// pair where the target has evidence in the category (Tx > 0) and the
// candidate has none (Ty = 0), because |Tx−0|/Tx = 1 exceeds every
// tolerance below 1. So whenever the gate is live, consumers absent from
// the category's posting list could never have contributed anyway.
//
// The index is partitioned by category hash so posting updates and cache
// rebuilds contend per category bucket, never engine-wide. SetProfile
// calls updateBatch while holding the consumer's shard lock, so updates
// for one consumer are totally ordered and the index always matches the
// shard's final state — no cross-consumer ordering is needed because
// postings are keyed per consumer.
type categoryIndex struct {
	shards []*indexShard
	// writes counts posting-map mutations since construction. The paged
	// catch-up path is asserted against it: re-applying an unchanged shard
	// snapshot must not rebuild the index (Stats.IndexWrites).
	writes atomic.Uint64
}

type indexShard struct {
	mu       sync.RWMutex
	postings map[string]map[string]similarity.Candidate // category -> userID -> candidate
	cache    map[string][]similarity.Candidate          // per-category list in UserID order, immutable once built
	dirty    map[string][]string                        // category -> consumers whose posting changed since cache[category] was built
}

// candidateOf is the one place a stored summary becomes a similarity
// candidate: everything the scorer can use rides along by reference, with ty
// the consumer's preference value in the category being searched.
func candidateOf(sum *profile.Summary, ty float64) similarity.Candidate {
	return similarity.Candidate{
		UserID: sum.UserID, Vec: sum.Vec, Ty: ty,
		Norm: sum.Norm, Compact: sum.Compact,
	}
}

func newCategoryIndex(nshards int) *categoryIndex {
	ix := &categoryIndex{shards: make([]*indexShard, nshards)}
	for i := range ix.shards {
		ix.shards[i] = &indexShard{
			postings: make(map[string]map[string]similarity.Candidate),
			cache:    make(map[string][]similarity.Candidate),
			dirty:    make(map[string][]string),
		}
	}
	return ix
}

func (ix *categoryIndex) shardFor(category string) *indexShard {
	return ix.shards[fnv32a(category)%uint32(len(ix.shards))]
}

// removeLocked drops userID's posting for cat. No-op (and no write counted)
// when the posting does not exist. Caller holds s.mu for writing.
func (ix *categoryIndex) removeLocked(s *indexShard, cat, userID string) {
	m := s.postings[cat]
	if m == nil {
		return
	}
	if _, ok := m[userID]; !ok {
		return
	}
	delete(m, userID)
	if len(m) == 0 {
		delete(s.postings, cat)
	}
	s.touchLocked(cat, userID)
	ix.writes.Add(1)
}

// installLocked installs or replaces cand's posting for cat. Caller holds
// s.mu for writing.
func (ix *categoryIndex) installLocked(s *indexShard, cat string, cand similarity.Candidate) {
	m := s.postings[cat]
	if m == nil {
		m = make(map[string]similarity.Candidate)
		s.postings[cat] = m
	}
	m[cand.UserID] = cand
	s.touchLocked(cat, cand.UserID)
	ix.writes.Add(1)
}

// touchLocked notes that userID's posting for cat changed, so the next
// reader brings the category's cached list up to date. A category with no
// list (no reader has asked for it yet) has nothing to note; a list that
// has fallen an eighth behind is dropped instead, which bounds the notes a
// category nobody reads any more can collect. Caller holds s.mu for writing.
func (s *indexShard) touchLocked(cat, userID string) {
	list, built := s.cache[cat]
	if !built {
		return
	}
	if len(s.dirty[cat]) >= len(list)/8 {
		delete(s.cache, cat)
		delete(s.dirty, cat)
		return
	}
	s.dirty[cat] = append(s.dirty[cat], userID)
}

// postingChange is one SetProfile transition for updateBatch: the summary
// the shard map held before the write (nil on first install) and the one
// just installed.
type postingChange struct {
	prev, sum *profile.Summary
}

// updateBatch applies SetProfile transitions — remove each consumer's
// postings for categories only its previous summary had, install the new
// summary's — with one lock acquisition per touched category bucket. The
// caller holds the consumers' shard lock (all changes belong to one shard),
// which serializes same-consumer updates; prev summaries therefore chain,
// so the union of prev and new categories covers every posting that needs
// touching. Per-bucket op order follows the changes order, so a consumer
// appearing twice resolves to the later entry.
func (ix *categoryIndex) updateBatch(changes []postingChange) {
	type op struct {
		cat    string
		userID string
		cand   similarity.Candidate
		remove bool
	}
	byBucket := make(map[*indexShard][]op)
	for _, ch := range changes {
		if ch.prev != nil {
			for cat := range ch.prev.Prefs {
				if _, still := ch.sum.Prefs[cat]; still {
					continue
				}
				s := ix.shardFor(cat)
				byBucket[s] = append(byBucket[s], op{cat: cat, userID: ch.sum.UserID, remove: true})
			}
		}
		for cat, ty := range ch.sum.Prefs {
			s := ix.shardFor(cat)
			byBucket[s] = append(byBucket[s], op{cat: cat, userID: ch.sum.UserID, cand: candidateOf(ch.sum, ty)})
		}
	}
	for s, ops := range byBucket {
		s.mu.Lock()
		for _, o := range ops {
			if o.remove {
				ix.removeLocked(s, o.cat, o.userID)
			} else {
				ix.installLocked(s, o.cat, o.cand)
			}
		}
		s.mu.Unlock()
	}
}

// candidates streams the posting list for category in UserID order. The
// order is part of what a read costs, not of its answer: consumers are
// summarized in the order they arrive, so walking them by id walks their
// summaries and vectors roughly in address order, and a read costs the same
// from one list, and one process, to the next; in the posting map's order
// it is a different random walk over the heap after every write. The
// backing slice is immutable once built, so iteration is lock-free; a write
// only notes which consumer changed, and the next reader pays for one copy
// of the list with those consumers' entries replaced, under this category's
// bucket lock alone.
func (ix *categoryIndex) candidates(category string) iter.Seq[similarity.Candidate] {
	s := ix.shardFor(category)
	s.mu.RLock()
	list, ok := s.cache[category]
	ok = ok && len(s.dirty[category]) == 0
	s.mu.RUnlock()
	if !ok {
		s.mu.Lock()
		list = s.refreshLocked(category)
		s.mu.Unlock()
	}
	return func(yield func(similarity.Candidate) bool) {
		for _, c := range list {
			if !yield(c) {
				return
			}
		}
	}
}

func byUserID(a, b similarity.Candidate) int { return strings.Compare(a.UserID, b.UserID) }

// refreshLocked returns category's cached list, brought up to date with the
// posting map first: built and sorted when there is none, otherwise copied
// with the changed consumers merged in. Caller holds s.mu for writing.
func (s *indexShard) refreshLocked(category string) []similarity.Candidate {
	old, built := s.cache[category]
	dirty := s.dirty[category]
	if built && len(dirty) == 0 {
		return old
	}
	m := s.postings[category]
	var list []similarity.Candidate
	if !built {
		list = make([]similarity.Candidate, 0, len(m))
		for _, c := range m {
			list = append(list, c)
		}
		slices.SortFunc(list, byUserID)
	} else {
		slices.Sort(dirty)
		list = spliceByID(old, slices.Compact(dirty),
			func(c similarity.Candidate) string { return c.UserID },
			func(id string) (similarity.Candidate, bool) { c, ok := m[id]; return c, ok })
	}
	s.cache[category] = list
	delete(s.dirty, category)
	return list
}

// size reports the number of indexed categories and total postings.
func (ix *categoryIndex) size() (categories, postings int) {
	for _, s := range ix.shards {
		s.mu.RLock()
		categories += len(s.postings)
		for _, m := range s.postings {
			postings += len(m)
		}
		s.mu.RUnlock()
	}
	return categories, postings
}
