package recommend

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"

	"agentrec/internal/catalog"
	"agentrec/internal/profile"
	"agentrec/internal/similarity"
)

// tasteCategories are the categories tasteProfile files weights under: two
// whose names spell each other's term ids ("c1/s"+"a" is "c1"+"s"/"a"), and
// one nobody has evidence in.
var tasteCategories = []string{"c0", "c1", "c2", "c3", "c4", "c5", "c1/s", "c9"}

// tasteProfile builds, as SetProfile may install it, a profile of one of
// the shapes the shared-category walk must handle: evidence in one to three
// categories, now and then a zero weight, a negative weight that leaves a
// category with a positive term but no evidence, a category named with a
// '/', or negative weights hidden by terms that share their ids.
func tasteProfile(rng *rand.Rand, id string) *profile.Profile {
	p := profile.NewProfile(id)
	terms := []string{"a", "b", "c", "d"}
	put := func(cat, sub, term string, w float64) {
		c := p.Categories[cat]
		if c == nil {
			c = &profile.Category{Name: cat, Terms: map[string]float64{}}
			p.Categories[cat] = c
		}
		if sub == "" {
			c.Terms[term] = w
			return
		}
		if c.Subs == nil {
			c.Subs = map[string]*profile.SubCategory{}
		}
		if c.Subs[sub] == nil {
			c.Subs[sub] = &profile.SubCategory{Name: sub, Terms: map[string]float64{}}
		}
		c.Subs[sub].Terms[term] = w
	}
	for range 1 + rng.IntN(3) {
		cat := tasteCategories[rng.IntN(6)]
		put(cat, "", terms[rng.IntN(len(terms))], 0.1+rng.Float64())
		if rng.IntN(4) == 0 {
			put(cat, "s", terms[rng.IntN(len(terms))], 0.1+rng.Float64())
		}
	}
	switch rng.IntN(10) {
	case 0: // a zero weight
		put(tasteCategories[rng.IntN(6)], "", "z", 0)
	case 1: // a positive term in a category the consumer has no evidence in
		cat := tasteCategories[rng.IntN(6)]
		put(cat, "", terms[rng.IntN(len(terms))], 1)
		put(cat, "", "neg", -3)
	case 2: // a category whose ids are another's
		put("c1/s", "", terms[rng.IntN(len(terms))], 1)
	case 3: // negatives hidden under heavier terms on their ids: a positive
		// term, and no evidence in c4 or c4/w
		put("c4", "", terms[rng.IntN(len(terms))], 1)
		put("c4", "w", "n", -20)
		put("c4/w", "", "n", 21) // the id c4/w/n, again
		put("c4/w", "", "m", -30)
		put("c4", "w", "m", 1) // the id c4/w/m, again
	}
	return p
}

// wideProfile has evidence in every category but the ones that spell
// another's ids and nobody's, so its lists together outrun a view.
func wideProfile(id string) *profile.Profile {
	p := profile.NewProfile(id)
	for _, cat := range tasteCategories[:6] {
		p.Categories[cat] = &profile.Category{Name: cat, Terms: map[string]float64{"a": 1, "b": 0.5}}
	}
	return p
}

// TestOutOfTasteSearchMatchesTopK: a search for a target with no evidence
// in the category walks only the consumers who share a category with it
// (Snapshot.outOfTaste), and still answers exactly as similarity.TopK over
// the whole materialized community does, for every consumer and every
// category it has no evidence in: in fresh views, in views patched by
// writes, and while readers build the lists beside a writer. The community
// holds the consumers whose lists do not bound what they score (negative
// weights, a '/' in a category name, terms sharing an id) and a target
// whose lists together are longer than a view, which takes the complement.
func TestOutOfTasteSearchMatchesTopK(t *testing.T) {
	for _, shards := range []int{1, 16} {
		t.Run(fmt.Sprintf("%d shards", shards), func(t *testing.T) {
			e := NewEngine(catalog.New(), WithShards(shards))
			e.k = -1 // every neighbour, so none can hide below the cut
			rng := rand.New(rand.NewPCG(48, uint64(shards)))
			model := map[string]*profile.Profile{}
			install := func(ps ...*profile.Profile) {
				t.Helper()
				if err := e.SetProfiles(ps); err != nil {
					t.Fatal(err)
				}
				for _, p := range ps {
					model[p.UserID] = p
				}
			}
			seed := []*profile.Profile{wideProfile("wide")}
			for i := range 160 {
				seed = append(seed, tasteProfile(rng, fmt.Sprintf("u%03d", i)))
			}
			install(seed...)

			check := func(snap *Snapshot) {
				t.Helper()
				all := make([]*profile.Profile, 0, len(model))
				for _, id := range slices.Sorted(maps.Keys(model)) {
					all = append(all, model[id])
				}
				searched := 0
				for _, target := range all {
					st := snap.profiled(target.UserID)
					for _, cat := range tasteCategories {
						if st.sum.Prefs[cat] > 0 {
							continue
						}
						got, err := e.searchNeighbors(snap, st.sum, cat, e.tolerance)
						if err != nil {
							t.Fatal(err)
						}
						want, err := similarity.TopK(target, all, cat, e.tolerance, e.k)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.EqualFunc(got, want, func(a, b similarity.Neighbor) bool {
							return a.UserID == b.UserID && a.Score == b.Score && a.Raw == b.Raw
						}) {
							t.Fatalf("%s in %s: %d neighbours %v, want the %d of TopK %v", target.UserID, cat, len(got), got, len(want), want)
						}
						searched++
					}
				}
				if searched < len(all) {
					t.Fatalf("only %d out-of-taste searches over %d consumers", searched, len(all))
				}
			}

			snap := e.Snapshot()
			if shards == 1 {
				v, total := snap.views[0], 0
				for cat := range snap.profiled("wide").sum.Prefs {
					total += len(v.inCategory(cat))
				}
				if total < len(v.inOrder()) {
					t.Fatalf("wide's lists hold %d, the view %d: the complement walk goes untested", total, len(v.inOrder()))
				}
			}
			check(snap)

			// A few writes, fewer than a view's overlay holds: the next
			// snapshot's views are patched, lists and all, not rebuilt.
			for i := range 6 {
				id := fmt.Sprintf("u%03d", rng.IntN(160))
				if i%2 == 0 {
					install(tasteProfile(rng, id))
				} else if err := e.RecordPurchase(id, fmt.Sprintf("p%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			snap = e.Snapshot()
			patched := false
			for _, v := range snap.views {
				patched = patched || len(v.over) > 0
			}
			if !patched {
				t.Fatal("no view of the snapshot after writes carries an overlay")
			}
			check(snap)

			// Readers search while a writer patches and folds views, each
			// against the full scan of its own snapshot.
			ids := slices.Sorted(maps.Keys(model))
			stop := make(chan struct{})
			var readers sync.WaitGroup
			for r := range 2 {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for i := r; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						snap := e.Snapshot()
						st := snap.profiled(ids[i%len(ids)])
						cat := tasteCategories[i%len(tasteCategories)]
						if st == nil || st.sum.Prefs[cat] > 0 {
							continue
						}
						got, err := e.searchNeighbors(snap, st.sum, cat, e.tolerance)
						if err != nil {
							t.Error(err)
							return
						}
						want, err := similarity.TopKStream(st.sum.UserID, st.sum.Vec, 0, e.tolerance, snap.candidates(cat), e.k)
						if err != nil {
							t.Error(err)
							return
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("reader: %s in %s: %v, the full scan %v", st.sum.UserID, cat, got, want)
							return
						}
					}
				}()
			}
			var batch []*profile.Profile
			for i := range 300 {
				batch = append(batch, tasteProfile(rng, ids[rng.IntN(len(ids))]))
				if i%7 == 0 {
					install(batch...)
					batch = nil
				}
			}
			install(batch...)
			close(stop)
			readers.Wait()
			check(e.Snapshot())
		})
	}
}
