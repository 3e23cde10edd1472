package profile

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
)

// randomProfile builds a profile over a small shared vocabulary, with
// sub-categories, from rng.
func randomProfile(rng *rand.Rand, id string) *Profile {
	p := NewProfile(id)
	for n := 1 + rng.IntN(12); n > 0; n-- {
		ev := Evidence{
			Category:  fmt.Sprintf("c%d", rng.IntN(5)),
			Terms:     map[string]float64{fmt.Sprintf("t%d", rng.IntN(20)): rng.Float64()},
			Behaviour: BehaviourBuy,
		}
		if rng.IntN(2) == 0 {
			ev.SubCategory = fmt.Sprintf("s%d", rng.IntN(3))
			ev.SubTerms = map[string]float64{fmt.Sprintf("t%d", rng.IntN(20)): rng.Float64()}
		}
		if err := p.Observe(ev); err != nil {
			panic(err)
		}
	}
	return p
}

// TestSummaryCompactAgreesWithVector: the compact form, Vec and Vector() are
// one vector three ways, ids strictly ascending.
func TestSummaryCompactAgreesWithVector(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 200; i++ {
		p := randomProfile(rng, "u")
		s := p.Summary()
		if !maps.Equal(s.Vec, p.Vector()) {
			t.Fatalf("Summary.Vec = %v, Vector() = %v", s.Vec, p.Vector())
		}
		c := s.Compact
		if len(c.IDs) != len(s.Vec) || len(c.Weights) != len(c.IDs) {
			t.Fatalf("compact form has %d ids, %d weights for %d terms", len(c.IDs), len(c.Weights), len(s.Vec))
		}
		for j, id := range c.IDs {
			if j > 0 && c.IDs[j-1] >= id {
				t.Fatalf("ids not strictly ascending: %v", c.IDs)
			}
			if w := s.Vec[terms.keys[id]]; w != c.Weights[j] {
				t.Fatalf("id %d (%q): compact weight %v, Vec weight %v", id, terms.keys[id], c.Weights[j], w)
			}
		}
		var scratch Compact
		scratch.Set(s.Vec)
		if !sameCompact(&scratch, c) {
			t.Fatalf("Set(Vec) = %+v, Summary built %+v", scratch, *c)
		}
	}
}

// TestSummaryBitReproducible: two computations over equal content agree to
// the last bit, in Norm and in the compact form, whatever order the maps
// iterate in.
func TestSummaryBitReproducible(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 100; i++ {
		p := randomProfile(rng, "u")
		a := p.Summary()
		for round := 0; round < 5; round++ {
			b := p.Clone().Summary()
			if math.Float64bits(a.Norm) != math.Float64bits(b.Norm) {
				t.Fatalf("Norm differs between two summaries of one profile: %.17g vs %.17g", a.Norm, b.Norm)
			}
			if !sameCompact(a.Compact, b.Compact) {
				t.Fatal("two summaries of one profile have different compact forms")
			}
		}
		if want := math.Sqrt(a.Compact.Gather(a.Compact.Scatter(nil))); math.Abs(a.Norm-want) > 1e-12*want {
			t.Fatalf("Norm = %v, sqrt(v·v) = %v", a.Norm, want)
		}
	}
}

// sameCompact reports whether c and o hold the same ids with the same weights.
func sameCompact(c, o *Compact) bool {
	return slices.Equal(c.IDs, o.IDs) && slices.Equal(c.Weights, o.Weights)
}

// TestSummarySharesKeyStrings: Vec keys are the dictionary's canonical
// copies, one per vocabulary entry however many consumers hold the term, and
// summarizing an already-seen vocabulary allocates no key string.
func TestSummarySharesKeyStrings(t *testing.T) {
	p := NewProfile("u")
	if err := p.Observe(Evidence{
		Category: "shared", Terms: map[string]float64{"a": 1, "b": 2},
		SubCategory: "sub", SubTerms: map[string]float64{"a": 1},
		Behaviour: BehaviourBuy,
	}); err != nil {
		t.Fatal(err)
	}
	before := len(terms.keys)
	p.Summary()
	grown := len(terms.keys)
	p.Clone().Summary()
	if len(terms.keys) != grown {
		t.Fatalf("dictionary grew from %d to %d entries on a vocabulary it had seen", grown, len(terms.keys))
	}
	if grown-before > 3 {
		t.Fatalf("dictionary grew by %d entries for 3 terms", grown-before)
	}
	// Fixed overhead only: the Summary, its two maps, the compact
	// form's three pieces. A key string per term would add three.
	base := testing.AllocsPerRun(100, func() { p.Summary() })
	if err := p.Observe(Evidence{Category: "shared", Terms: map[string]float64{"c": 1, "d": 1, "e": 1}, Behaviour: BehaviourBuy}); err != nil {
		t.Fatal(err)
	}
	p.Summary()
	if more := testing.AllocsPerRun(100, func() { p.Summary() }); more > base {
		t.Fatalf("allocations per Summary grew with the term count: %.0f at 3 terms, %.0f at 6", base, more)
	}
}

// TestSummaryCollidingKeys: two paths that flatten to one key ("a/b"+"c",
// "a"+"b"+"c") are one dimension, and which weight it carries does not depend
// on map order.
func TestSummaryCollidingKeys(t *testing.T) {
	p := NewProfile("u")
	p.Categories["a/b"] = &Category{Name: "a/b", Terms: map[string]float64{"c": 1}}
	p.Categories["a"] = &Category{Name: "a", Terms: map[string]float64{}, Subs: map[string]*SubCategory{
		"b": {Name: "b", Terms: map[string]float64{"c": 3}},
	}}
	for i := 0; i < 20; i++ {
		s := p.Summary()
		if len(s.Vec) != 1 || s.Vec["a/b/c"] != 3 || len(s.Compact.IDs) != 1 || s.Compact.Weights[0] != 3 {
			t.Fatalf("colliding keys: Vec %v, compact %+v", s.Vec, *s.Compact)
		}
	}
}

// TestDictionaryConcurrent interns overlapping new vocabularies from many
// goroutines (run under -race): every goroutine must end up with the same
// id for the same key.
func TestDictionaryConcurrent(t *testing.T) {
	const workers, keys = 8, 200
	got := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vec := make(map[string]float64, keys)
			for k := 0; k < keys; k++ {
				vec[fmt.Sprintf("concurrent/k%03d", k)] = float64(k + 1)
			}
			var c Compact
			c.Set(vec)
			// Ids ascending; recover the id of each key by its weight.
			ids := make([]uint32, keys)
			for i, id := range c.IDs {
				ids[int(c.Weights[i])-1] = id
			}
			got[w] = ids
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !slices.Equal(got[0], got[w]) {
			t.Fatalf("goroutines 0 and %d disagree on ids", w)
		}
	}
}
