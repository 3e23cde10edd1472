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

// Vec is a sparse non-negative weight vector, keyed by term.
type Vec = map[string]float64

// Cosine returns the cosine similarity of a and b in [0, 1] for
// non-negative vectors; 0 when either is empty or zero.
func Cosine(a, b Vec) float64 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Norm returns the Euclidean norm of v. Callers scoring one vector against
// many candidates compute it once (profile.Summary caches it) instead of
// letting Cosine re-sum it per pair.
func Norm(v Vec) float64 {
	var sq float64
	for _, x := range v {
		sq += x * x
	}
	return math.Sqrt(sq)
}

// Dot returns the sparse dot product of a and b.
func Dot(a, b Vec) float64 {
	var dot float64
	for k, x := range a {
		if y, ok := b[k]; ok {
			dot += x * y
		}
	}
	return dot
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
	res.Raw = Cosine(x.Vector(), y.Vector())
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

// Candidate is one consumer in a streaming neighbour search, carrying
// precomputed profile data (see profile.Summary) so the ranking loop neither
// re-flattens vectors nor re-sums preference values per pair. Norm and
// Compact are optional precomputed acceleration data: a zero Norm makes
// TopKStream recompute it from Vec, and a candidate built from a Summary
// carries its Compact, which TopKStream scores by a gather against the
// scattered target. The map-based Dot over Vec remains solely as the
// fallback for candidates built without a Summary (nil Compact), and for
// Cosine and PaperSimilarity.
type Candidate struct {
	UserID  string
	Vec     Vec              // flattened profile vector
	Ty      float64          // preference value for the category under consideration
	Norm    float64          // cached Euclidean norm of Vec (0 = unknown)
	Compact *profile.Compact // shared profile.Summary.Compact (nil = score over Vec)
}

// TopK ranks candidates by PaperSimilarity against target with respect to
// category and returns the k most similar non-discarded, non-zero neighbors
// in descending score order (ties broken by UserID for determinism). k < 0
// returns all.
func TopK(target *profile.Profile, candidates []*profile.Profile, category string, tolerance float64, k int) ([]Neighbor, error) {
	seq := func(yield func(Candidate) bool) {
		for _, cand := range candidates {
			c := Candidate{UserID: cand.UserID, Vec: cand.Vector(), Ty: cand.PreferenceValue(category)}
			if !yield(c) {
				return
			}
		}
	}
	return TopKStream(target.UserID, target.Vector(), target.PreferenceValue(category), tolerance, seq, k)
}

// topkScratch is the pooled working set of one TopKStream call: the
// bounded min-heap (or unbounded accumulator when k < 0), the target's
// compact form and the dense table it is scattered into. Pooling it keeps
// the inner scoring loop at zero heap allocations per candidate — the
// read-path hot loop runs at memory speed regardless of community size
// (TestTopKStreamZeroAlloc pins this).
type topkScratch struct {
	heap   []Neighbor
	target profile.Compact // the target vector, interned once per call
	dense  []float64       // target weights by term id; all zero while pooled
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
// profile slice, with the target pre-flattened: the recommendation engine
// feeds it a category's candidate lists or a full snapshot scan so neighbour
// search touches only the candidates that could pass the gate. Semantics
// match TopK exactly: the Fig 4.5 gate, the positive-score filter, and the
// deterministic score-then-UserID ordering. Candidates whose UserID equals
// targetID are skipped. k < 0 returns all.
//
// The scoring loop is allocation-free per candidate: the target's compact
// form and norm are computed once and the target is scattered into a pooled
// dense table, candidate norms come precomputed on the Candidate (falling
// back to a re-sum when absent), and survivors go through a pooled bounded
// heap sized k instead of an append-everything-then-sort buffer. A candidate
// that carries a Compact is scored by one gather over its own ids, summed in
// ascending term-id order, so the same content gives bit-identical scores.
// An empty or zero target has no neighbour and reads no candidate.
func TopKStream(targetID string, targetVec Vec, tx, tolerance float64, candidates iter.Seq[Candidate], k int) ([]Neighbor, error) {
	if err := CheckTolerance(tolerance); err != nil {
		return nil, err
	}
	if k == 0 {
		return []Neighbor{}, nil
	}
	sc := topkPool.Get().(*topkScratch)
	sc.target.Set(targetVec)
	na := sc.target.Norm()
	if na == 0 {
		topkPool.Put(sc)
		return []Neighbor{}, nil
	}
	sc.dense = sc.target.Scatter(sc.dense)
	heap := sc.heap[:0]
	if k >= 0 && cap(heap) < k {
		heap = make([]Neighbor, 0, k)
	}
	for cand := range candidates {
		if cand.UserID == targetID {
			continue
		}
		if GateDiscards(tx, cand.Ty, tolerance) {
			continue
		}
		nb := cand.Norm
		if nb == 0 {
			nb = Norm(cand.Vec)
			if nb == 0 {
				continue
			}
		}
		var dot float64
		if cand.Compact != nil {
			dot = cand.Compact.Gather(sc.dense)
		} else {
			dot = Dot(targetVec, cand.Vec)
		}
		if dot <= 0 {
			continue
		}
		score := dot / (na * nb)
		n := Neighbor{UserID: cand.UserID, Score: score, Raw: score, Tx: tx, Ty: cand.Ty}
		switch {
		case k < 0 || len(heap) < k:
			heap = append(heap, n)
			if len(heap) == k {
				// Heapify once, when the bound is first reached.
				for i := len(heap)/2 - 1; i >= 0; i-- {
					heapFix(heap, i)
				}
			}
		case worse(&heap[0], &n):
			heap[0] = n
			heapFix(heap, 0)
		}
	}
	out := make([]Neighbor, len(heap))
	copy(out, heap)
	sc.heap = heap[:0]
	sc.target.Unscatter(sc.dense)
	topkPool.Put(sc)
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
	return out, nil
}
