package recommend

import (
	"iter"
	"sync"

	"agentrec/internal/profile"
	"agentrec/internal/similarity"
)

// This file is the approximate-neighbour layer of the candidate index:
// per-category random-hyperplane LSH buckets over the dense projections of
// profile.Summary (similarity/lsh.go holds the geometry). The
// buckets are maintained inside the same index-bucket critical sections as
// the postings themselves — the postings stay the canonical summaries, so
// replication, snapshot catch-up, and warm restart rebuild the hashes for
// free by replaying the same install path, and a shortlist can always be
// hydrated back into full candidates from the posting map under one lock.
//
// A shortlist is never trusted: the engine re-ranks it with the exact
// Fig 4.5 scorer (gate included), so LSH only decides who gets scored,
// never how. The exact path remains available per query (SearchExact).

// annSeed fixes the hyperplane draw so every replica buckets identically.
const annSeed = 0x6167656e74726563 // "agentrec"

const (
	// annMinBits is the starting signature depth of a fresh category: 64
	// buckets per table, deepened as the category grows.
	annMinBits = 6
	// annLoad is the target mean bucket occupancy: a category rehashes to
	// one more bit whenever members exceed annLoad << bits.
	annLoad = 32
	// annMinShortlist is the category size below which shortlisting is
	// pointless — the exact posting scan is already cheap, and tiny
	// categories are where LSH recall is shakiest.
	annMinShortlist = 128
)

// annState is the engine-wide ANN configuration: nil on the categoryIndex
// means LSH is off and the index byte-for-byte matches its exact-only
// behaviour. The hasher is immutable; probes is the per-table multi-probe
// width.
type annState struct {
	hasher *similarity.Hasher
	probes int
}

// annCat is one category's LSH structure: for every hash table, buckets of
// consumer ids keyed by bits-deep signature. Guarded by the owning
// indexShard's mutex, exactly like the posting map it shadows.
type annCat struct {
	bits   int
	n      int // members (== len of the category's posting map)
	tables []map[uint32][]string
}

func newAnnCat(tables int) *annCat {
	ac := &annCat{bits: annMinBits, tables: make([]map[uint32][]string, tables)}
	for t := range ac.tables {
		ac.tables[t] = make(map[uint32][]string)
	}
	return ac
}

// annInstallLocked adds cand to cat's buckets, deepening the signature
// depth first when the category outgrew its current bucket count. postings
// is the category's posting map (pre-insert or post-insert both work: the
// rebucketing source of truth is whatever the map holds plus cand). Caller
// holds s.mu for writing.
func (s *indexShard) annInstallLocked(ann *annState, cat string, cand similarity.Candidate) {
	ac := s.ann[cat]
	if ac == nil {
		ac = newAnnCat(ann.hasher.Tables())
		s.ann[cat] = ac
	}
	ac.n++
	if ac.n > annLoad<<ac.bits && ac.bits < similarity.MaxBits {
		s.annRehashLocked(ann, cat, ac, cand)
		return
	}
	for t := range ac.tables {
		sig := ann.hasher.Sig(cand.Dense, t, ac.bits)
		ac.tables[t][sig] = append(ac.tables[t][sig], cand.UserID)
	}
}

// annRehashLocked deepens cat's signatures and rebuckets every live member
// from the posting map (each posting carries its shared Dense projection),
// plus extra — the candidate being installed, not yet in the map. This is
// the "rehash live buckets" moment: it runs under the bucket write lock,
// so concurrent shortlist readers see either the old depth or the new one,
// never a mix.
func (s *indexShard) annRehashLocked(ann *annState, cat string, ac *annCat, extra similarity.Candidate) {
	for ac.n > annLoad<<ac.bits && ac.bits < similarity.MaxBits {
		ac.bits++
	}
	m := s.postings[cat]
	for t := range ac.tables {
		nb := make(map[uint32][]string, len(m)/annLoad+1)
		for _, c := range m {
			sig := ann.hasher.Sig(c.Dense, t, ac.bits)
			nb[sig] = append(nb[sig], c.UserID)
		}
		if _, already := m[extra.UserID]; !already {
			sig := ann.hasher.Sig(extra.Dense, t, ac.bits)
			nb[sig] = append(nb[sig], extra.UserID)
		}
		ac.tables[t] = nb
	}
}

// annRemoveLocked drops old from cat's buckets (old is the posting being
// replaced or deleted, whose Dense locates its current buckets). Caller
// holds s.mu for writing.
func (s *indexShard) annRemoveLocked(ann *annState, cat string, old similarity.Candidate) {
	ac := s.ann[cat]
	if ac == nil {
		return
	}
	ac.n--
	for t := range ac.tables {
		sig := ann.hasher.Sig(old.Dense, t, ac.bits)
		b := ac.tables[t][sig]
		for i, id := range b {
			if id == old.UserID {
				b[i] = b[len(b)-1]
				ac.tables[t][sig] = b[:len(b)-1]
				break
			}
		}
		if len(ac.tables[t][sig]) == 0 {
			delete(ac.tables[t], sig)
		}
	}
	if ac.n <= 0 {
		delete(s.ann, cat)
	}
}

// annShortlist is one pooled shortlist query: the deduped candidates and
// the scratch the probe loop reuses. Release returns it to the pool.
type annShortlist struct {
	cands []similarity.Candidate
	seen  map[string]struct{}
	sigs  []uint32
}

var annShortPool = sync.Pool{
	New: func() any { return &annShortlist{seen: make(map[string]struct{}, 256)} },
}

func (q *annShortlist) release() {
	clear(q.seen)
	q.cands = q.cands[:0]
	q.sigs = q.sigs[:0]
	annShortPool.Put(q)
}

// seq streams the shortlisted candidates. The engine feeds it through the
// same snapshot reconciliation as the full posting list, then releases q.
func (q *annShortlist) seq() iter.Seq[similarity.Candidate] {
	return func(yield func(similarity.Candidate) bool) {
		for _, c := range q.cands {
			if !yield(c) {
				return
			}
		}
	}
}

// shortlist probes category's LSH buckets for the neighbours of target's
// dense projection and hydrates the deduped ids back into posting
// candidates, all under one bucket read lock. Nil means "no shortlist —
// score exactly": ANN off, the category too small, an unindexed category,
// or a zero projection.
func (ix *categoryIndex) shortlist(category string, target *profile.Summary) *annShortlist {
	ann := ix.ann
	if ann == nil {
		return nil
	}
	dense := target.Dense()
	zero := true
	for _, v := range dense {
		if v != 0 {
			zero = false
			break
		}
	}
	if zero {
		return nil
	}
	s := ix.shardFor(category)
	s.mu.RLock()
	ac := s.ann[category]
	if ac == nil || ac.n < annMinShortlist {
		s.mu.RUnlock()
		return nil
	}
	m := s.postings[category]
	q := annShortPool.Get().(*annShortlist)
	for t := range ac.tables {
		q.sigs = ann.hasher.Probes(dense, t, ac.bits, ann.probes, q.sigs[:0])
		for _, sig := range q.sigs {
			for _, id := range ac.tables[t][sig] {
				if _, dup := q.seen[id]; dup {
					continue
				}
				q.seen[id] = struct{}{}
				if c, ok := m[id]; ok {
					q.cands = append(q.cands, c)
				}
			}
		}
	}
	s.mu.RUnlock()
	return q
}
