package recommend

import (
	"iter"
	"sort"
	"sync/atomic"

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

func (s *Snapshot) shardIdx(userID string) int {
	return int(fnv32a(userID) % uint32(len(s.views)))
}

func (s *Snapshot) viewFor(userID string) *shardView {
	return s.views[s.shardIdx(userID)]
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

// candidates streams every profile in the view as a similarity candidate
// for category — the full-community scan for when the gate does not narrow
// the search to inCategory (gate ablated, or a target with no evidence in
// the category).
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
