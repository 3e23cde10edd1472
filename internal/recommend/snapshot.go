package recommend

import (
	"iter"
	"sort"
	"sync/atomic"

	"agentrec/internal/catalog"
	"agentrec/internal/profile"
	"agentrec/internal/similarity"
)

// Snapshot is an immutable view of the consumer community assembled from
// the per-shard views (shardView). Every recommendation strategy runs
// against one Snapshot, so a request sees a stable community even while
// Profile Agents install profiles and record purchases concurrently —
// readers never hold a lock while scoring.
//
// Consistency is per shard: a consumer's profile and own purchases are one
// record in the consumer's shard, so they always agree; cross-shard skew is
// bounded by the writes that landed while the snapshot was being assembled.
//
// Profile returns shared internal state, which callers must treat as
// read-only; Purchases builds a map of the caller's own.
//
// A Snapshot also remembers its last neighbour search (lastSearch), so the
// Fig 4.2 task's re-rank and cross-sell, which ask for the same neighbours
// of the same consumer, search once. The memo needs no invalidation: its
// key names the target's record in this immutable view, and the snapshot —
// memo included — dies with the request that took it.
type Snapshot struct {
	views      []*shardView
	lastSearch atomic.Pointer[neighborMemo]
}

// neighborKey names one neighbour search against a snapshot.
type neighborKey struct {
	target *consumer
	cat    string
	tol    float64
}

// neighborMemo is one neighbour search's key and answer. The answer is
// shared by every read that hits the memo and must not be mutated.
type neighborMemo struct {
	key       neighborKey
	neighbors []similarity.Neighbor
}

// Snapshot captures the current community view. Taking one is cheap when
// the community is quiet — each untouched shard contributes its cached
// view via two atomic loads.
func (e *Engine) Snapshot() *Snapshot {
	views := make([]*shardView, len(e.shards))
	for i, sh := range e.shards {
		views[i] = sh.snapshot()
	}
	return &Snapshot{views: views}
}

func (s *Snapshot) viewFor(userID string) *shardView {
	return s.views[shardOf(userID, len(s.views))]
}

// profiled returns userID's record when it holds a profile, else nil.
func (s *Snapshot) profiled(userID string) *consumer {
	if c := s.viewFor(userID).consumer(userID); c != nil && c.prof != nil {
		return c
	}
	return nil
}

// Profile returns the profile stored for userID, or nil when unknown. The
// returned profile is shared and must not be mutated.
func (s *Snapshot) Profile(userID string) *profile.Profile {
	if c := s.profiled(userID); c != nil {
		return c.prof
	}
	return nil
}

// Purchases returns userID's purchase set in this view, nil when they have
// bought nothing: a map built on each call from their record, and the
// caller's own.
func (s *Snapshot) Purchases(userID string) map[string]bool {
	c := s.viewFor(userID).consumer(userID)
	if c == nil || len(c.bought) == 0 {
		return nil
	}
	set := make(map[string]bool, len(c.bought))
	for _, p := range c.bought {
		set[p.product] = true
	}
	return set
}

// Users returns the ids of all consumers with a profile in the view,
// sorted.
func (s *Snapshot) Users() []string {
	var out []string
	for _, v := range s.views {
		for _, sum := range v.inOrder() {
			out = append(out, sum.UserID)
		}
	}
	sort.Strings(out)
	return out
}

// Len reports the number of consumers with a profile in the view.
func (s *Snapshot) Len() int {
	n := 0
	for _, v := range s.views {
		n += len(v.inOrder())
	}
	return n
}

// admitted streams the consumers a neighbour search for target in category
// at tolerance tol must score. With the discard gate live (tolerance below
// 1) they are only consumers the gate can admit: when the target has
// evidence in the category, the consumers with evidence there, since every
// other one is gated out (Ty = 0 against Tx > 0); when it has none, the
// consumers with none there either who share a category with it
// (outOfTaste). Without a category, or with the gate ablated, it is the
// whole snapshot.
func (s *Snapshot) admitted(target *profile.Summary, category string, tol float64) iter.Seq[similarity.Candidate] {
	switch {
	case category == "" || tol >= 1:
		return s.candidates(category)
	case target.Prefs[category] > 0:
		return s.inCategory(category)
	default:
		return s.outOfTaste(target, category)
	}
}

// candidates streams every profile in the view as a similarity candidate
// for category: the full-community scan, for a search the gate does not
// narrow (gate ablated, or no category).
func (s *Snapshot) candidates(category string) iter.Seq[similarity.Candidate] {
	return func(yield func(similarity.Candidate) bool) {
		for _, v := range s.views {
			for _, sum := range v.inOrder() {
				if !yield(candidateOf(sum, sum.Prefs[category])) {
					return
				}
			}
		}
	}
}

// inCategory streams the consumers with evidence in category, shard by
// shard and each shard's in UserID order, as the full scan walks them. The
// order is part of what a read costs, not of its answer: consumers are
// summarized in the order they arrive, so walking them by id walks their
// summaries and vectors roughly in address order, and a read costs the same
// from one process to the next.
func (s *Snapshot) inCategory(category string) iter.Seq[similarity.Candidate] {
	return func(yield func(similarity.Candidate) bool) {
		for _, v := range s.views {
			for _, c := range v.inCategory(category) {
				if !yield(c) {
					return
				}
			}
		}
	}
}

// strays streams category's stray buyers against items (shardView.strays),
// shard by shard, each shard's in UserID order.
func (s *Snapshot) strays(items *catalog.View, category string) iter.Seq[similarity.Candidate] {
	return func(yield func(similarity.Candidate) bool) {
		for _, v := range s.views {
			for _, c := range v.strays(items)[category] {
				if !yield(c) {
					return
				}
			}
		}
	}
}

// maxShared is how many categories a target's shared-category walk merges
// the lists of; a target with evidence in more takes the complement walk.
const maxShared = 32

// outOfTaste streams, for a target with no evidence in category, the
// consumers it can score under the live gate: those with no evidence there
// either (the gate discards the rest), and of those only the ones that
// share a category with the target, shard by shard, each shard's in UserID
// order, every one with no evidence in category.
//
// A candidate scores only with a positive dot against the target, so some
// term id carries a nonzero weight in both. An id spells its category
// ("cat/term", "cat/sub/term"), so for two consumers neither of whom is
// unlisted (no negative weight, no two terms on one id, no '/' in a
// category name) that weight is positive on both sides and lies in a
// category both have evidence in: the candidate is on the list of one of
// the target's categories. An unlisted candidate is walked from its view's
// unlisted list whatever its categories; an unlisted target, or one with
// more than maxShared categories, takes the plain complement walk. So does
// any view where the target's lists together are as long as the view.
// TopKStream ranks by (score, id), a total order, so the walk's order
// changes no answer.
func (s *Snapshot) outOfTaste(target *profile.Summary, category string) iter.Seq[similarity.Candidate] {
	return func(yield func(similarity.Candidate) bool) {
		var shared [maxShared]string
		n, narrow := 0, len(target.Prefs) <= maxShared && !unlisted(target)
		if narrow {
			for cat := range target.Prefs {
				shared[n] = cat
				n++
			}
		}
		for _, v := range s.views {
			if !v.outOfTaste(shared[:n], narrow, category, yield) {
				return
			}
		}
	}
}

// outOfTaste yields, for a target with no evidence in cat, the view's
// consumers it can score (Snapshot.outOfTaste), each with no evidence in
// cat, and reports whether yield asked for more. With narrow set, shared
// holds every category the target has evidence in, and the walk merges
// their lists and the unlisted consumers unless together they are as long
// as the view; otherwise it walks the view's consumers. Either way it
// leaves out cat's list, whose consumers the gate discards.
func (v *shardView) outOfTaste(shared []string, narrow bool, cat string, yield func(similarity.Candidate) bool) bool {
	order, in := v.inOrder(), v.inCategory(cat)
	if narrow {
		var lists [maxShared + 1][]similarity.Candidate
		n, total := 0, 0
		for _, c := range shared {
			if l := v.inCategory(c); len(l) > 0 {
				lists[n], n, total = l, n+1, total+len(l)
			}
		}
		if l := v.unlisted(); len(l) > 0 {
			lists[n], n, total = l, n+1, total+len(l)
		}
		if total < len(order) {
			return union(lists[:n], in, yield)
		}
	}
	// in is a sub-list of order, in the same order.
	for _, sum := range order {
		if len(in) > 0 && in[0].UserID == sum.UserID {
			in = in[1:]
			continue
		}
		if !yield(candidateOf(sum, 0)) {
			return false
		}
	}
	return true
}

// union yields, in UserID order and once each, the consumers on any of
// lists (each in UserID order) and not on minus (likewise), as candidates
// with no evidence in the searched category, and reports whether yield
// asked for more. It takes the lists' heads as it goes.
func union(lists [][]similarity.Candidate, minus []similarity.Candidate, yield func(similarity.Candidate) bool) bool {
	for len(lists) > 0 {
		m := 0
		for i := 1; i < len(lists); i++ {
			if lists[i][0].UserID < lists[m][0].UserID {
				m = i
			}
		}
		c := lists[m][0]
		for i := 0; i < len(lists); {
			if lists[i][0].UserID == c.UserID {
				if lists[i] = lists[i][1:]; len(lists[i]) == 0 {
					last := len(lists) - 1
					lists[i], lists = lists[last], lists[:last]
					continue
				}
			}
			i++
		}
		for len(minus) > 0 && minus[0].UserID < c.UserID {
			minus = minus[1:]
		}
		if len(minus) > 0 && minus[0].UserID == c.UserID {
			continue
		}
		c.Ty = 0
		if !yield(c) {
			return false
		}
	}
	return true
}
