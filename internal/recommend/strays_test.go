package recommend

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"agentrec/internal/catalog"
	"agentrec/internal/profile"
	"agentrec/internal/similarity"
)

// cfFrom is cf's answer for userID in category, computed from nbs, the
// whole neighbour list, against snap and the catalogue's current view.
func cfFrom(e *Engine, snap *Snapshot, userID, category string, nbs []similarity.Neighbor) []Rec {
	items, owned := e.catalog.View(), snap.Purchases(userID)
	scores := make(map[string]float64)
	for _, nb := range nbs {
		for p := range snap.Purchases(nb.UserID) {
			if it, ok := items.Lookup(p); ok && it.Category == category && !owned[p] {
				scores[p] += nb.Score
			}
		}
	}
	return rank(scores, -1, "cf")
}

// termProfile is a profile with evidence in one category: terms, weighted.
func termProfile(id, category string, terms map[string]float64) *profile.Profile {
	p := profile.NewProfile(id)
	p.Categories[category] = &profile.Category{Name: category, Terms: terms}
	return p
}

// TestBoundedOutOfTasteCFMatchesFullSearch: a CF read in a category where
// the target has no evidence stops its neighbour search once none of the
// category's stray buyers can make the top k, and still answers, for every
// consumer and every category it has no evidence in, exactly as CF over
// the neighbours similarity.TopK finds in the whole materialized community;
// and a search that stopped leaves no memo behind. The stray buyers come
// from bare purchases, some of them written after the views were built and
// so read through an overlay. Three pairs of consumers pin the edges:
// twin-a's best neighbour, twin-b, becomes a stray buyer by a purchase-only
// write; solo-b, a stray buyer, is the only consumer who scores for solo-a;
// and own-a owns the one product its best neighbour bought in c1.
func TestBoundedOutOfTasteCFMatchesFullSearch(t *testing.T) {
	cat := catalog.New()
	var products []string
	for ci, c := range tasteCategories {
		for i := range 4 {
			id := fmt.Sprintf("p%d-%d", ci, i)
			if err := cat.Add(&catalog.Product{ID: id, Name: id, Category: c, Terms: map[string]float64{"t": 1}, SellerID: "s", Stock: 1}); err != nil {
				t.Fatal(err)
			}
			products = append(products, id)
		}
	}
	inCat := func(c string) string { return fmt.Sprintf("p%d-0", slices.Index(tasteCategories, c)) }
	for _, shards := range []int{1, 16} {
		for _, k := range []int{1, 10} {
			t.Run(fmt.Sprintf("%d shards k=%d", shards, k), func(t *testing.T) {
				e := NewEngine(cat, WithShards(shards), WithNeighbors(k))
				rng := rand.New(rand.NewPCG(49, uint64(shards*100+k)))
				model := map[string]*profile.Profile{}
				var seed []*profile.Profile
				for i := range 120 {
					seed = append(seed, tasteProfile(rng, fmt.Sprintf("u%03d", i)))
				}
				twin := map[string]float64{"a": 1, "b": 1, "x": 3}
				seed = append(seed, wideProfile("wide"),
					termProfile("twin-a", "c0", twin), termProfile("twin-b", "c0", twin),
					termProfile("solo-a", "c9", map[string]float64{"q": 1}), termProfile("solo-b", "c9", map[string]float64{"q": 2}),
					termProfile("own-a", "c4", twin), termProfile("own-b", "c4", twin))
				if err := e.SetProfiles(seed); err != nil {
					t.Fatal(err)
				}
				for _, p := range seed {
					model[p.UserID] = p
				}
				buy := func(user, product string) {
					t.Helper()
					if err := e.RecordPurchase(user, product); err != nil {
						t.Fatal(err)
					}
				}
				for range 40 {
					buy(fmt.Sprintf("u%03d", rng.IntN(120)), products[rng.IntN(len(products))])
				}
				buy("ghost", inCat("c2")) // purchases, no profile
				buy("solo-b", inCat("c3"))
				buy("own-b", inCat("c1"))
				buy("own-a", inCat("c1"))

				all := make([]*profile.Profile, 0, len(model))
				for _, id := range slices.Sorted(maps.Keys(model)) {
					all = append(all, model[id])
				}
				// check reads CF for every consumer in every category it has
				// no evidence in, and returns how many of those searches
				// gave up and how many answered something.
				check := func(snap *Snapshot) (gaveUp, answered int) {
					t.Helper()
					for _, target := range all {
						st := snap.profiled(target.UserID)
						for _, c := range tasteCategories {
							if st.sum.Prefs[c] > 0 {
								continue
							}
							got, err := e.RecommendWith(snap, StrategyCF, target.UserID, c, -1)
							if err != nil {
								t.Fatal(err)
							}
							nbs, err := similarity.TopK(target, all, c, e.tolerance, k)
							if err != nil {
								t.Fatal(err)
							}
							if want := cfFrom(e, snap, target.UserID, c, nbs); !slices.Equal(got, want) {
								t.Fatalf("%s in %s: CF %v, from the full search %v (neighbours %v)", target.UserID, c, got, want, nbs)
							}
							m := snap.lastSearch.Load()
							if m == nil || m.key.target != st || m.key.cat != c {
								gaveUp++
							} else if !slices.EqualFunc(m.neighbors, nbs, func(a, b similarity.Neighbor) bool {
								return a.UserID == b.UserID && a.Score == b.Score
							}) {
								t.Fatalf("%s in %s: memo %v, the full search %v", target.UserID, c, m.neighbors, nbs)
							}
							if len(got) > 0 {
								answered++
							}
						}
					}
					return gaveUp, answered
				}
				cfHas := func(snap *Snapshot, user, c, product string) bool {
					t.Helper()
					recs, err := e.RecommendWith(snap, StrategyCF, user, c, -1)
					if err != nil {
						t.Fatal(err)
					}
					return slices.ContainsFunc(recs, func(r Rec) bool { return r.ProductID == product })
				}

				snap := e.Snapshot()
				gaveUp, answered := check(snap)
				if gaveUp == 0 || answered == 0 {
					t.Fatalf("%d searches gave up and %d answered: the bound goes untested", gaveUp, answered)
				}
				if !cfHas(snap, "solo-a", "c3", inCat("c3")) {
					t.Fatal("solo-a's only neighbour, a stray buyer in c3, left no product")
				}
				if cfHas(snap, "own-a", "c1", inCat("c1")) {
					t.Fatal("own-a was recommended a product it owns")
				}

				// Purchase-only writes, fewer than a view's overlay holds:
				// twin-b becomes a stray buyer in c2 without a new summary.
				buy("twin-b", inCat("c2"))
				for range 4 {
					buy(fmt.Sprintf("u%03d", rng.IntN(120)), products[rng.IntN(len(products))])
				}
				snap = e.Snapshot()
				v := snap.viewFor("twin-b")
				if c, ok := v.over["twin-b"]; !ok || c.sum != v.base.consumers["twin-b"].sum {
					t.Fatal("twin-b's purchase did not reach the view as a purchase-only overlay entry")
				}
				if !cfHas(snap, "twin-a", "c2", inCat("c2")) {
					t.Fatal("twin-a's best neighbour bought in c2 through the overlay, and CF missed it")
				}
				check(snap)

				// Readers compare the bounded read against CF over the whole
				// search of their own snapshot while bare purchases patch
				// and fold the views.
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
							c := tasteCategories[i%len(tasteCategories)]
							if st.sum.Prefs[c] > 0 {
								continue
							}
							got, err := e.RecommendWith(snap, StrategyCF, st.sum.UserID, c, -1)
							if err != nil {
								t.Error(err)
								return
							}
							nbs, err := e.searchNeighbors(snap, st.sum, c, e.tolerance)
							if err != nil {
								t.Error(err)
								return
							}
							if want := cfFrom(e, snap, st.sum.UserID, c, nbs); !slices.Equal(got, want) {
								t.Errorf("reader: %s in %s: CF %v, from the full search %v", st.sum.UserID, c, got, want)
								return
							}
						}
					}()
				}
				for range 200 {
					buy(ids[rng.IntN(len(ids))], products[rng.IntN(len(products))])
				}
				close(stop)
				readers.Wait()
				check(e.Snapshot())
			})
		}
	}
}

// TestStrayBuyersFollowCatalogue is TestIFilterFollowsCatalogue's rule for
// the out-of-taste CF read: a product that moves into a category moves its
// buyers onto the category's stray-buyer list on the very next read, even
// in views whose lists were built before the move, and a stock movement
// rebuilds nothing.
func TestStrayBuyersFollowCatalogue(t *testing.T) {
	cat := catalog.New()
	for _, p := range []struct{ id, category string }{{"a1", "alpha"}, {"b1", "beta"}, {"g1", "gamma"}} {
		if err := cat.Add(&catalog.Product{ID: p.id, Name: p.id, Category: p.category, Terms: map[string]float64{"t": 1}, SellerID: "s", Stock: 5}); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(cat, WithShards(1), WithNeighbors(1))
	if err := e.SetProfiles([]*profile.Profile{
		termProfile("tess", "alpha", map[string]float64{"x": 1}),
		termProfile("xavi", "alpha", map[string]float64{"x": 1, "y": 0.5}),
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.RecordPurchase("xavi", "b1"); err != nil {
		t.Fatal(err)
	}
	read := func() []Rec {
		t.Helper()
		snap := e.Snapshot()
		got, err := e.RecommendWith(snap, StrategyCF, "tess", "gamma", -1)
		if err != nil {
			t.Fatal(err)
		}
		nbs, err := e.searchNeighbors(snap, snap.profiled("tess").sum, "gamma", e.tolerance)
		if err != nil {
			t.Fatal(err)
		}
		if want := cfFrom(e, snap, "tess", "gamma", nbs); !slices.Equal(got, want) {
			t.Fatalf("CF %v, from the full search %v", got, want)
		}
		return got
	}
	if got := read(); len(got) != 0 {
		t.Fatalf("CF in gamma = %v before any gamma purchase, want nothing", got)
	}
	built := e.Snapshot().views[0].base.strayLists.built.Load()
	if built == nil {
		t.Fatal("the read built no stray-buyer lists")
	}
	if _, err := cat.AdjustStock("b1", -1); err != nil {
		t.Fatal(err)
	}
	read()
	if e.Snapshot().views[0].base.strayLists.built.Load() != built {
		t.Fatal("a stock movement rebuilt the stray-buyer lists")
	}
	if err := cat.Upsert(&catalog.Product{ID: "b1", Name: "b1", Category: "gamma", Terms: map[string]float64{"t": 1}, SellerID: "s", Stock: 4}); err != nil {
		t.Fatal(err)
	}
	if got := read(); len(got) != 1 || got[0].ProductID != "b1" {
		t.Fatalf("CF in gamma = %v after b1 moved there, want xavi's b1", got)
	}
}
