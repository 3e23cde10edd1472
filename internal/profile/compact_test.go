package profile

import (
	"fmt"
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

// TestSummaryCompactAgreesWithVector: Summary.Vec is the flattened vector
// with its keys interned, ids strictly ascending.
func TestSummaryCompactAgreesWithVector(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 200; i++ {
		p := randomProfile(rng, "u")
		s := p.Summary()
		want := flatten(p)
		c := s.Vec
		if len(c.IDs) != len(want) || len(c.Weights) != len(c.IDs) {
			t.Fatalf("compact form has %d ids, %d weights for %d terms", len(c.IDs), len(c.Weights), len(want))
		}
		for j, id := range c.IDs {
			if j > 0 && c.IDs[j-1] >= id {
				t.Fatalf("ids not strictly ascending: %v", c.IDs)
			}
		}
		for key, w := range want {
			if got, ok := weightOf(s, key); !ok || got != w {
				t.Fatalf("%q: compact weight %v (held: %v), flattened weight %v", key, got, ok, w)
			}
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
			if !sameCompact(a.Vec, b.Vec) {
				t.Fatal("two summaries of one profile have different compact forms")
			}
		}
		if want := math.Sqrt(a.Vec.Gather(a.Vec.Scatter(nil))); math.Abs(a.Norm-want) > 1e-12*want {
			t.Fatalf("Norm = %v, sqrt(v·v) = %v", a.Norm, want)
		}
	}
}

// sameCompact reports whether c and o hold the same ids with the same weights.
func sameCompact(c, o *Compact) bool {
	return slices.Equal(c.IDs, o.IDs) && slices.Equal(c.Weights, o.Weights)
}

// TestSummarySharesKeyStrings: the dictionary keeps one key string per
// vocabulary entry however many consumers hold the term, and summarizing an
// already-seen vocabulary allocates no key string.
func TestSummarySharesKeyStrings(t *testing.T) {
	p := NewProfile("u")
	if err := p.Observe(Evidence{
		Category: "shared", Terms: map[string]float64{"a": 1, "b": 2},
		SubCategory: "sub", SubTerms: map[string]float64{"a": 1},
		Behaviour: BehaviourBuy,
	}); err != nil {
		t.Fatal(err)
	}
	size := func() int {
		terms.mu.RLock()
		defer terms.mu.RUnlock()
		return len(terms.ids)
	}
	before := size()
	p.Summary()
	grown := size()
	p.Clone().Summary()
	if size() != grown {
		t.Fatalf("dictionary grew from %d to %d entries on a vocabulary it had seen", grown, size())
	}
	if grown-before > 3 {
		t.Fatalf("dictionary grew by %d entries for 3 terms", grown-before)
	}
	// Fixed overhead only: the Summary, its Prefs map, the compact
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
		if w, _ := weightOf(s, "a/b/c"); len(s.Vec.IDs) != 1 || w != 3 {
			t.Fatalf("colliding keys: Vec %+v", *s.Vec)
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
			cat := &Category{Name: "concurrent", Terms: make(map[string]float64, keys)}
			for k := 0; k < keys; k++ {
				cat.Terms[fmt.Sprintf("k%03d", k)] = float64(k + 1)
			}
			p := NewProfile("u")
			p.Categories[cat.Name] = cat
			c := p.Summary().Vec
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
