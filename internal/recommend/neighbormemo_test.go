package recommend

import (
	"fmt"
	"sync"
	"testing"

	"agentrec/internal/catalog"
	"agentrec/internal/profile"
	"agentrec/internal/workload"
)

// The Fig 4.2 task's two reads on one snapshot — the query re-rank, then
// the cross-sell in the query's category — search once, and answer from the
// snapshot they share: here bob leaves laptops after the re-rank, which
// only a fresh snapshot sees.
func TestQueryAndCrossSellShareOneSearch(t *testing.T) {
	e := fixture(t)
	snap := e.Snapshot()
	matches := []catalog.Match{
		{Product: &catalog.Product{ID: "lap3", Category: "laptop", Terms: map[string]float64{"hdd": 1}}, Score: 1},
	}
	if _, err := e.RecommendForQueryWith(snap, "alice", matches, 10); err != nil {
		t.Fatal(err)
	}
	first := snap.lastSearch.Load()
	if first == nil || len(first.neighbors) == 0 || first.neighbors[0].UserID != "bob" {
		t.Fatalf("re-rank's search = %+v, want bob as alice's neighbour", first)
	}

	bob := profile.NewProfile("bob")
	if err := bob.Observe(profile.Evidence{Category: "camera", Terms: map[string]float64{"lens": 1}, Behaviour: profile.BehaviourBuy}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetProfile(bob); err != nil {
		t.Fatal(err)
	}

	if _, err := e.RecommendWith(snap, StrategyAuto, "alice", "laptop", 5); err != nil {
		t.Fatal(err)
	}
	if got := snap.lastSearch.Load(); got != first {
		t.Fatalf("cross-sell searched again: memo %+v, want the re-rank's %+v", got, first)
	}
	cf, err := e.RecommendWith(snap, StrategyCF, "alice", "laptop", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cf) == 0 || cf[0].ProductID != "lap2" {
		t.Errorf("CF on the task's snapshot = %+v, want bob's lap2 from the shared search", cf)
	}
	fresh, err := e.Recommend(StrategyCF, "alice", "laptop", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != 0 {
		t.Errorf("CF on a fresh snapshot = %+v, want nothing: bob left laptops", fresh)
	}
}

// Any change of target, category or tolerance is a different search and
// runs again on the same snapshot. The tolerance leg ablates the gate, which
// searches at tolerance 1.
func TestNeighborMemoKeyedOnTheWholeSearch(t *testing.T) {
	e := fixture(t)
	snap := e.Snapshot()
	alice, bob := snap.profiled("alice"), snap.profiled("bob")
	tol := e.tolerance
	search := func(key neighborKey) *neighborMemo {
		t.Helper()
		e.tolerance = key.tol
		defer func() { e.tolerance = tol }()
		if _, err := e.neighbors(snap, key.target, key.cat); err != nil {
			t.Fatal(err)
		}
		return snap.lastSearch.Load()
	}
	base := neighborKey{target: alice, cat: "laptop", tol: tol}
	first := search(base)
	if again := search(base); again != first {
		t.Fatal("the same search ran twice on one snapshot")
	}
	for _, tc := range []struct {
		name string
		key  neighborKey
	}{
		{"target", neighborKey{target: bob, cat: "laptop", tol: tol}},
		{"category", neighborKey{target: alice, cat: "camera", tol: tol}},
		{"tolerance", neighborKey{target: alice, cat: "laptop", tol: 1}},
	} {
		prev := search(base)
		got := search(tc.key)
		if got == prev || got.key != tc.key {
			t.Errorf("%s: a different search was answered from the memo", tc.name)
		}
	}
}

// Eight goroutines sharing one Snapshot, each reading for different
// (consumer, category) pairs in its own order, get the answers the same
// reads give one at a time (up to contentScore's map-order float noise).
func TestSharedSnapshotConcurrentReadsMatchSerial(t *testing.T) {
	u, err := workload.Generate(workload.Config{
		Seed: 11, Users: 80, Products: 240, Categories: 6, RelevantPerUser: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(u.Catalog, WithNeighbors(8))
	for _, usr := range u.Users {
		p, err := u.BuildProfile(usr)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetProfile(p); err != nil {
			t.Fatal(err)
		}
	}
	for user, pids := range u.Purchases() {
		for _, pid := range pids {
			if err := e.RecordPurchase(user, pid); err != nil {
				t.Fatal(err)
			}
		}
	}

	type read struct{ user, cat string }
	var reads []read
	for i, usr := range u.Users[:24] {
		reads = append(reads, read{usr.ID, fmt.Sprintf("cat%02d", i%6)}, read{usr.ID, ""})
	}
	type answer struct{ query, cross []Rec }
	matchesFor := func(cat string) []catalog.Match {
		var out []catalog.Match
		for _, it := range u.Catalog.View().Items(cat) {
			out = append(out, catalog.Match{Product: &catalog.Product{ID: it.ID, Category: it.Category, SubCategory: it.SubCategory, Terms: it.Terms}, Score: 1})
			if len(out) == 6 {
				break
			}
		}
		return out
	}
	answerOn := func(snap *Snapshot, r read) (answer, error) {
		query, err := e.RecommendForQueryWith(snap, r.user, matchesFor(r.cat), 10)
		if err != nil {
			return answer{}, err
		}
		cross, err := e.RecommendWith(snap, StrategyAuto, r.user, r.cat, 5)
		return answer{query, cross}, err
	}
	want := make([]answer, len(reads))
	for i, r := range reads {
		a, err := answerOn(e.Snapshot(), r)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = a
	}

	shared := e.Snapshot()
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range reads {
				i := (k*(2*g+1) + g) % len(reads) // each goroutine its own order
				got, err := answerOn(shared, reads[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !recsEquivalent(got.query, want[i].query) || !recsEquivalent(got.cross, want[i].cross) {
					t.Errorf("goroutine %d, read %+v: got %+v, want %+v", g, reads[i], got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// With the discard gate ablated the query re-rank searches with the
// tolerance every other neighbour search uses: its neighbour-ownership term
// is built from exactly the neighbours Neighbors returns.
func TestRecommendForQueryHonoursGateAblation(t *testing.T) {
	e := fixture(t, WithTolerance(1))
	nbs, err := e.Neighbors("alice", "laptop", SearchExact)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) == 0 {
		t.Fatal("gate off should make bob alice's neighbour")
	}
	snap := e.Snapshot()
	nbOwn := make(map[string]float64)
	for _, nb := range nbs {
		for pid := range snap.Purchases(nb.UserID) {
			nbOwn[pid] += nb.Score
		}
	}
	var maxNb float64
	for _, v := range nbOwn {
		maxNb = max(maxNb, v)
	}

	// Zero relevance and no terms leave the neighbour-ownership term alone
	// in the score: 0.35 of its normalised value, ×0.1 for what alice owns.
	var matches []catalog.Match
	for _, id := range []string{"lap1", "lap2", "lap3"} {
		matches = append(matches, catalog.Match{Product: &catalog.Product{ID: id, Category: "laptop"}})
	}
	recs, err := e.RecommendForQuery("alice", matches, -1)
	if err != nil {
		t.Fatal(err)
	}
	owned := snap.Purchases("alice")
	for _, r := range recs {
		want := 0.35 * (nbOwn[r.ProductID] / maxNb)
		if owned[r.ProductID] {
			want *= 0.1
		}
		if r.Score != want {
			t.Errorf("%s scored %v, want %v from Neighbors' neighbours %+v", r.ProductID, r.Score, want, nbs)
		}
	}
}
