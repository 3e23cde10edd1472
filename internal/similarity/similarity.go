// Package similarity implements the profile-to-profile similarity the
// recommendation mechanism uses to find like-minded consumers (§4.4,
// Fig 4.5), and the cosine kernels it is built from.
//
// The paper's algorithm (quoted from Middleton) works on the weighted term
// vectors of two consumer profiles, with one twist spelled out in §4.4: "If
// Consumer X's preference merchandise item value Tx [is] different from
// other consumer Y's preference merchandise item value Ty, the similarity
// result will be discarded." That is a disagreement gate: when the two
// consumers' aggregate preference for the merchandise category under
// consideration diverges beyond a tolerance, the pair contributes no
// recommendation regardless of raw vector similarity. PaperSimilarity
// implements cosine-over-term-vectors guarded by that gate; the F4.5
// experiment ablates the gate against plain cosine.
package similarity

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"
	"sync"

	"agentrec/internal/profile"
)

// ErrBadThreshold reports a discard threshold outside [0, 1].
var ErrBadThreshold = errors.New("similarity: discard threshold must be in [0, 1]")

// CheckTolerance returns a wrapped ErrBadThreshold unless tolerance is in
// [0, 1]. NaN is refused too: no gate comparison is true for it, so it
// would switch the gate off while a caller that assumes a live gate below
// 1 still restricts its candidates.
func CheckTolerance(tolerance float64) error {
	if !(tolerance >= 0 && tolerance <= 1) {
		return fmt.Errorf("%w: %v", ErrBadThreshold, tolerance)
	}
	return nil
}

// Result is the outcome of the paper's similarity computation for a pair of
// consumers with respect to one merchandise category.
type Result struct {
	Score     float64 // cosine over the full profile vectors; 0 if discarded
	Raw       float64 // the undiscarded cosine, kept for the F4.5 ablation
	Discarded bool    // true when the preference-value gate fired
	Tx, Ty    float64 // the compared preference values
}

// PaperSimilarity computes the Fig 4.5 similarity between consumers x and y
// with respect to category: cosine over the flattened profile vectors,
// discarded (Score 0) when the two consumers' preference values for the
// category disagree by more than tolerance, measured relatively:
//
//	|Tx − Ty| / max(Tx, Ty) > tolerance  ⇒  discard
//
// A pair where only one side knows the category at all (the other's T is 0)
// is maximally different and always discarded for tolerance < 1. Pairs are
// never discarded when both T values are 0 — no evidence is not
// disagreement; the raw cosine (likely 0 anyway) stands.
func PaperSimilarity(x, y *profile.Profile, category string, tolerance float64) (Result, error) {
	if err := CheckTolerance(tolerance); err != nil {
		return Result{}, err
	}
	res := Result{
		Tx: x.PreferenceValue(category),
		Ty: y.PreferenceValue(category),
	}
	sx, sy := x.Summary(), y.Summary()
	sc := topkPool.Get().(*topkScratch)
	sc.dense = sx.Vec.Scatter(sc.dense)
	res.Raw = cosine(sy.Vec.Gather(sc.dense), sx.Norm, sy.Norm)
	sx.Vec.Unscatter(sc.dense)
	topkPool.Put(sc)
	res.Score = res.Raw
	if GateDiscards(res.Tx, res.Ty, tolerance) {
		res.Discarded = true
		res.Score = 0
	}
	return res, nil
}

// GateDiscards reports whether the Fig 4.5 preference-value gate fires for
// the pair of aggregate preferences (tx, ty):
//
//	|Tx − Ty| / max(Tx, Ty) > tolerance  ⇒  discard
//
// Both values zero is never a discard — no evidence is not disagreement.
func GateDiscards(tx, ty, tolerance float64) bool {
	max := math.Max(tx, ty)
	return max > 0 && math.Abs(tx-ty)/max > tolerance
}

// Neighbor is one candidate consumer ranked by similarity.
type Neighbor struct {
	UserID string
	Score  float64
	Raw    float64
	Tx, Ty float64
}

// cosine is the Fig 4.5 cosine of two vectors with norms na and nb whose
// dot product is dot: 0 when either vector is zero.
func cosine(dot, na, nb float64) float64 {
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (na * nb)
}

// Candidate is one consumer in a streaming neighbour search, carrying
// precomputed profile data (see profile.Summary) so the ranking loop neither
// re-flattens vectors nor re-sums preference values per pair. Vec is the
// consumer's Summary.Vec, shared, and Norm its Summary.Norm: TopKStream
// scores Vec by one gather against the scattered target and divides by
// Norm as it stands, so a candidate with a zero Norm scores nothing.
type Candidate struct {
	UserID string
	Vec    *profile.Compact // the consumer's flattened, interned vector
	Ty     float64          // preference value for the category under consideration
	Norm   float64          // Vec.Norm()
}

// TopK ranks candidates by PaperSimilarity against target with respect to
// category and returns the k most similar non-discarded, non-zero neighbors
// in descending score order (ties broken by UserID for determinism). k < 0
// returns all.
func TopK(target *profile.Profile, candidates []*profile.Profile, category string, tolerance float64, k int) ([]Neighbor, error) {
	seq := func(yield func(Candidate) bool) {
		for _, cand := range candidates {
			s := cand.Summary()
			if !yield(Candidate{UserID: cand.UserID, Vec: s.Vec, Ty: cand.PreferenceValue(category), Norm: s.Norm}) {
				return
			}
		}
	}
	return TopKStream(target.UserID, target.Summary().Vec, target.PreferenceValue(category), tolerance, seq, k)
}

// topkScratch is the pooled working set of one TopKStream call: the
// bounded min-heap (or unbounded accumulator when k < 0) and the dense
// table the target is scattered into, which PaperSimilarity borrows too.
// Pooling it keeps the inner scoring loop at zero heap allocations per
// candidate — the read-path hot loop runs at memory speed regardless of
// community size (TestTopKStreamZeroAlloc pins this).
type topkScratch struct {
	heap  []Neighbor
	dense []float64 // target weights by term id; all zero while pooled
	bar   Neighbor  // TopKReaching's bar, while it walks
}

var topkPool = sync.Pool{New: func() any { return new(topkScratch) }}

// worse reports whether a ranks strictly below b in the final order
// (descending score, ties broken by ascending UserID). The bounded heap
// keeps the worst retained neighbour at its root.
func worse(a, b *Neighbor) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.UserID > b.UserID
}

// heapFix sifts the element at i of a min-by-rank heap (worst at root)
// down to its place. Elements enter at the root by replacement, so only a
// downward sift is ever needed.
func heapFix(h []Neighbor, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && worse(&h[l], &h[min]) {
			min = l
		}
		if r < len(h) && worse(&h[r], &h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// TopKStream is TopK over a candidate stream instead of a materialized
// profile slice, with the target already summarized: the recommendation
// engine feeds it a category's candidate lists or a full snapshot scan so
// neighbour search touches only the candidates that could pass the gate.
// Semantics match TopK exactly: the Fig 4.5 gate, the positive-score filter,
// and the deterministic score-then-UserID ordering. Candidates whose UserID
// equals targetID are skipped. k < 0 returns all.
//
// The scoring loop is allocation-free per candidate: target, the caller's
// Summary.Vec, is scattered once into a pooled dense table, each candidate
// is scored by one gather over its own ids, summed in ascending term-id
// order, so the same content gives bit-identical scores, candidate norms
// come precomputed on the Candidate, and survivors go through a pooled
// bounded heap sized k instead of an append-everything-then-sort buffer.
// An empty or zero target has no neighbour and reads no candidate.
func TopKStream(targetID string, target *profile.Compact, tx, tolerance float64, candidates iter.Seq[Candidate], k int) ([]Neighbor, error) {
	out, _, err := TopKReaching(targetID, target, tx, tolerance, nil, candidates, k)
	return out, err
}

// TopKReaching is TopKStream for a caller that has use for the answer only
// if it holds one of reach: consumers who are among candidates, each as
// candidates carries them, or who score nothing. It scores reach first, and
// the best of them by (score, UserID) is the bar. When none of reach
// scores, or as soon as the heap holds k candidates that all rank above
// the bar, no consumer of reach can make the top k: it stops there and
// returns nil and false. Otherwise it returns TopKStream's answer and true.
// A nil reach never stops, and is TopKStream.
func TopKReaching(targetID string, target *profile.Compact, tx, tolerance float64, reach, candidates iter.Seq[Candidate], k int) ([]Neighbor, bool, error) {
	if err := CheckTolerance(tolerance); err != nil {
		return nil, false, err
	}
	if k == 0 {
		return []Neighbor{}, true, nil
	}
	na := target.Norm()
	if na == 0 {
		return []Neighbor{}, true, nil
	}
	sc := topkPool.Get().(*topkScratch)
	sc.dense = target.Scatter(sc.dense)
	out, reached := sc.topK(targetID, na, tx, tolerance, reach, candidates, k)
	sc.heap = sc.heap[:0]
	target.Unscatter(sc.dense)
	topkPool.Put(sc)
	if !reached {
		return nil, false, nil
	}
	slices.SortFunc(out, func(a, b Neighbor) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		if a.UserID != b.UserID {
			if a.UserID < b.UserID {
				return -1
			}
			return 1
		}
		return 0
	})
	return out, true, nil
}

// topK is TopKReaching against the target scattered into sc.dense with
// norm na: the survivors unsorted, or false where TopKReaching stops.
func (sc *topkScratch) topK(targetID string, na, tx, tolerance float64, reach, candidates iter.Seq[Candidate], k int) ([]Neighbor, bool) {
	if reach != nil {
		if sc.rank(targetID, na, tx, tolerance, reach, 1, false); len(sc.heap) == 0 {
			return nil, false
		}
		sc.bar = sc.heap[0]
	}
	if sc.rank(targetID, na, tx, tolerance, candidates, k, reach != nil) {
		return nil, false
	}
	out := make([]Neighbor, len(sc.heap))
	copy(out, sc.heap)
	return out, true
}

// rank is the one scoring loop. It keeps in sc.heap the k best candidates
// (all of them for k < 0) that pass the gate and score, against the target
// scattered into sc.dense with norm na. With bounded set, it stops,
// reporting true, once the heap holds k candidates that all rank above
// sc.bar. Its state lives in sc, so the loop body captures no variable
// it writes, and costs one allocation, itself.
func (sc *topkScratch) rank(targetID string, na, tx, tolerance float64, candidates iter.Seq[Candidate], k int, bounded bool) bool {
	sc.heap = sc.heap[:0]
	if k >= 0 && cap(sc.heap) < k {
		sc.heap = make([]Neighbor, 0, k)
	}
	candidates(func(cand Candidate) bool {
		if cand.UserID == targetID || GateDiscards(tx, cand.Ty, tolerance) || cand.Norm == 0 {
			return true
		}
		dot := cand.Vec.Gather(sc.dense)
		if dot <= 0 {
			return true
		}
		score := cosine(dot, na, cand.Norm)
		n := Neighbor{UserID: cand.UserID, Score: score, Raw: score, Tx: tx, Ty: cand.Ty}
		switch h := sc.heap; {
		case k < 0 || len(h) < k:
			sc.heap = append(h, n)
			if len(sc.heap) == k {
				// Heapify once, when the bound is first reached.
				for i := k/2 - 1; i >= 0; i-- {
					heapFix(sc.heap, i)
				}
			}
		case worse(&h[0], &n):
			h[0] = n
			heapFix(h, 0)
		default:
			return true
		}
		return !bounded || !sc.cleared(k)
	})
	return bounded && sc.cleared(k)
}

// cleared reports whether the heap holds k candidates that all rank above
// sc.bar. The heap's worst only rises, so once it does, it stays so.
func (sc *topkScratch) cleared(k int) bool {
	return len(sc.heap) == k && worse(&sc.bar, &sc.heap[0])
}
