package similarity

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"agentrec/internal/profile"
)

// allocCommunity builds n candidates sharing a 32-term vocabulary, with
// cached norms: the hot-path shape the engine feeds TopKStream.
func allocCommunity(n int) (*profile.Compact, []Candidate) {
	rng := rand.New(rand.NewPCG(5, 5))
	term := func(i int) string { return fmt.Sprintf("t/%02d", i) }
	target := vec{}
	for i := 0; i < 12; i++ {
		target[term(rng.IntN(32))] = 0.2 + rng.Float64()
	}
	cands := make([]Candidate, n)
	for i := range cands {
		v := vec{}
		for j := 0; j < 12; j++ {
			v[term(rng.IntN(32))] = 0.2 + rng.Float64()
		}
		c := compactOf(v)
		cands[i] = Candidate{
			UserID: fmt.Sprintf("u%05d", i),
			Vec:    c,
			Ty:     0.8 + 0.4*rng.Float64(),
			Norm:   c.Norm(),
		}
	}
	return compactOf(target), cands
}

// TestTopKStreamZeroAlloc is the mechanical-sympathy gate for the scoring
// core: TopKStream must allocate a small constant (pooled scratch, result
// copy), never per candidate. It compares allocations per run between a
// small and a 64x larger community — any per-candidate allocation shows up
// as growth.
func TestTopKStreamZeroAlloc(t *testing.T) {
	t.Run("compact", testTopKStreamZeroAlloc)
}

func testTopKStreamZeroAlloc(t *testing.T) {
	measure := func(n int) float64 {
		target, cands := allocCommunity(n)
		seq := func(yield func(Candidate) bool) {
			for i := range cands {
				if !yield(cands[i]) {
					return
				}
			}
		}
		// Warm the scratch pool so the first-use allocation is not billed.
		if _, err := TopKStream("self", target, 1, 0.5, seq, 10); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := TopKStream("self", target, 1, 0.5, seq, 10); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := measure(64)
	large := measure(4096)
	// Under -race sync.Pool drops a quarter of what is put back, and a fresh
	// scratch costs up to four allocations, so the two averages wander by
	// about one; a per-candidate allocation would add thousands.
	if large-small > 2 {
		t.Fatalf("allocations grow with community size: %.1f at 64 candidates, %.1f at 4096", small, large)
	}
	const fixedBudget = 6 // result slice + pool jitter, nothing else
	if large > fixedBudget {
		t.Fatalf("fixed overhead %.1f allocs/op exceeds budget %d", large, fixedBudget)
	}
}
