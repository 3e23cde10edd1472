package recommend

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"agentrec/internal/catalog"
	"agentrec/internal/profile"
	"agentrec/internal/similarity"
	"agentrec/internal/workload"
)

// fixture builds a tiny community: alice and bob share a taste (both bought
// laptops with ssd), carol is into cameras. dave is brand new (cold start).
func fixture(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	cat := catalog.New()
	add := func(id, category string, price int64, terms map[string]float64) {
		t.Helper()
		if err := cat.Add(&catalog.Product{
			ID: id, Name: id, Category: category, Terms: terms,
			PriceCents: price, SellerID: "s", Stock: 5,
		}); err != nil {
			t.Fatal(err)
		}
	}
	add("lap1", "laptop", 100000, map[string]float64{"ssd": 1, "light": 0.5})
	add("lap2", "laptop", 120000, map[string]float64{"ssd": 0.9, "gpu": 0.5})
	add("lap3", "laptop", 90000, map[string]float64{"hdd": 1})
	add("cam1", "camera", 50000, map[string]float64{"lens": 1})
	add("cam2", "camera", 60000, map[string]float64{"lens": 0.8, "zoom": 1})

	e := NewEngine(cat, opts...)

	mk := func(id string, buys ...string) *profile.Profile {
		t.Helper()
		p := profile.NewProfile(id)
		for _, pid := range buys {
			prod, err := cat.Get(pid)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Observe(prod.Evidence(profile.BehaviourBuy)); err != nil {
				t.Fatal(err)
			}
			e.RecordPurchase(id, pid)
		}
		e.SetProfile(p)
		return p
	}
	mk("alice", "lap1")
	mk("bob", "lap1", "lap2")
	mk("carol", "cam1", "cam2")
	return e
}

func TestCFRecommendsNeighborPurchases(t *testing.T) {
	e := fixture(t)
	recs, err := e.Recommend(StrategyCF, "alice", "laptop", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("CF returned nothing")
	}
	// bob is alice's neighbour; lap2 is bob's purchase alice lacks.
	if recs[0].ProductID != "lap2" {
		t.Errorf("top rec = %s, want lap2", recs[0].ProductID)
	}
	for _, r := range recs {
		if r.ProductID == "lap1" {
			t.Error("CF recommended a product alice already owns")
		}
		if r.Source != "cf" {
			t.Errorf("source = %s", r.Source)
		}
	}
}

func TestCFUnknownUser(t *testing.T) {
	e := fixture(t)
	if _, err := e.Recommend(StrategyCF, "nobody", "", 5); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("err = %v, want ErrUnknownUser", err)
	}
}

func TestIFMatchesOwnProfile(t *testing.T) {
	e := fixture(t)
	recs, err := e.Recommend(StrategyIF, "alice", "laptop", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("IF returned nothing")
	}
	// alice's profile has ssd/light weights; lap2 (ssd) must beat lap3 (hdd).
	for _, r := range recs {
		if r.ProductID == "lap3" {
			t.Error("IF recommended term-mismatched lap3")
		}
		if r.ProductID == "lap1" {
			t.Error("IF recommended owned product")
		}
	}
	if recs[0].ProductID != "lap2" {
		t.Errorf("top IF rec = %s, want lap2", recs[0].ProductID)
	}
}

func TestIFEmptyForForeignCategory(t *testing.T) {
	e := fixture(t)
	recs, err := e.Recommend(StrategyIF, "alice", "camera", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("IF for unknown category = %v, want empty", recs)
	}
}

func TestHybridCombines(t *testing.T) {
	e := fixture(t)
	recs, err := e.Recommend(StrategyHybrid, "alice", "laptop", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].ProductID != "lap2" {
		t.Fatalf("hybrid = %+v", recs)
	}
	if recs[0].Source != "hybrid" {
		t.Errorf("source = %s", recs[0].Source)
	}
}

func TestTopSellers(t *testing.T) {
	e := fixture(t)
	recs, err := e.Recommend(StrategyTopSeller, "", "", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no top sellers")
	}
	// lap1 was bought twice (alice, bob); everything else once.
	if recs[0].ProductID != "lap1" || recs[0].Score != 2 {
		t.Errorf("top seller = %+v", recs[0])
	}
	// Category filter.
	recs, _ = e.Recommend(StrategyTopSeller, "", "camera", 5)
	for _, r := range recs {
		if r.ProductID[:3] != "cam" {
			t.Errorf("camera top seller includes %s", r.ProductID)
		}
	}
}

func TestAutoFallsBackForColdStart(t *testing.T) {
	e := fixture(t)
	// dave has no profile at all.
	recs, err := e.Recommend(StrategyAuto, "dave", "", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("auto returned nothing for cold user")
	}
	if recs[0].Source != "topseller-fallback" {
		t.Errorf("source = %s, want topseller-fallback", recs[0].Source)
	}
}

func TestAutoUsesHybridForWarmUser(t *testing.T) {
	e := fixture(t)
	recs, err := e.Recommend(StrategyAuto, "alice", "laptop", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Source != "hybrid" {
		t.Fatalf("auto for warm user = %+v", recs)
	}
}

func TestUnknownStrategy(t *testing.T) {
	e := fixture(t)
	if _, err := e.Recommend(Strategy(99), "alice", "", 3); !errors.Is(err, ErrUnknownStrategy) {
		t.Fatalf("err = %v", err)
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{
		StrategyAuto: "auto", StrategyCF: "cf", StrategyIF: "if",
		StrategyHybrid: "hybrid", StrategyTopSeller: "topseller",
	} {
		if s.String() != want {
			t.Errorf("String(%d) = %s", int(s), s)
		}
	}
	if Strategy(42).String() == "" {
		t.Error("unknown strategy must render")
	}
}

func TestSetProfileCopies(t *testing.T) {
	e := fixture(t)
	p := profile.NewProfile("eve")
	p.Observe(profile.Evidence{Category: "laptop", Terms: map[string]float64{"ssd": 1}, Behaviour: profile.BehaviourBuy})
	e.SetProfile(p)
	p.Observe(profile.Evidence{Category: "laptop", Terms: map[string]float64{"ssd": 100}, Behaviour: profile.BehaviourBuy})
	stored, err := e.Profile("eve")
	if err != nil {
		t.Fatal(err)
	}
	if stored.Observed != 1 {
		t.Error("SetProfile did not copy; later mutation leaked in")
	}
}

func TestProfileUnknownUser(t *testing.T) {
	e := fixture(t)
	if _, err := e.Profile("nobody"); !errors.Is(err, ErrUnknownUser) {
		t.Fatal(err)
	}
}

func TestUsersSorted(t *testing.T) {
	e := fixture(t)
	got := e.Users()
	want := []string{"alice", "bob", "carol"}
	if len(got) != len(want) {
		t.Fatalf("Users = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Users = %v, want %v", got, want)
		}
	}
}

func TestDiscardGateAblation(t *testing.T) {
	// With the gate on and a strict tolerance, bob (2 purchases) may be
	// gated away from alice (1 purchase); with the gate off he is always a
	// neighbour. The ablation must never *reduce* the candidate pool.
	strict := fixture(t, WithTolerance(0.05))
	open := fixture(t, WithTolerance(1))
	rs, err := strict.Recommend(StrategyCF, "alice", "laptop", 5)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := open.Recommend(StrategyCF, "alice", "laptop", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ro) < len(rs) {
		t.Errorf("gate off returned fewer recs (%d) than gate on (%d)", len(ro), len(rs))
	}
	if len(ro) == 0 {
		t.Error("gate off should find bob's purchases")
	}
}

// TestOpenRefusesBadTolerance: a tolerance outside [0, 1] is refused when
// the engine is built, not by every CF read later. NaN above all: it passed
// the [0, 1] check, switched the gate off while the category-list restriction
// that assumes a live gate still applied, and never hit the neighbour memo.
func TestOpenRefusesBadTolerance(t *testing.T) {
	for _, tol := range []float64{2, -1, math.NaN()} {
		if _, err := Open(catalog.New(), WithTolerance(tol)); !errors.Is(err, similarity.ErrBadThreshold) {
			t.Errorf("Open(WithTolerance(%v)) = %v; want ErrBadThreshold", tol, err)
		}
	}
	for _, tol := range []float64{0, 1} {
		if _, err := Open(catalog.New(), WithTolerance(tol)); err != nil {
			t.Errorf("Open(WithTolerance(%v)): %v", tol, err)
		}
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "threshold") || strings.Contains(msg, "persistence") {
			t.Errorf("NewEngine panic %q; want the tolerance named, not persistence", msg)
		}
	}()
	NewEngine(catalog.New(), WithTolerance(math.NaN()))
}

func TestRecommendForQueryRanksOwnedLast(t *testing.T) {
	e := fixture(t)
	cat := catalog.New() // not used; matches come from the fixture's catalog via Search shape
	_ = cat
	matches := []catalog.Match{
		{Product: &catalog.Product{ID: "lap1", Category: "laptop", Terms: map[string]float64{"ssd": 1}}, Score: 1.0},
		{Product: &catalog.Product{ID: "lap2", Category: "laptop", Terms: map[string]float64{"ssd": 0.9}}, Score: 0.9},
	}
	recs, err := e.RecommendForQuery("alice", matches, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recs = %+v", recs)
	}
	// alice owns lap1: it must sink below lap2 despite higher raw relevance.
	if recs[0].ProductID != "lap2" {
		t.Errorf("owned product did not sink: %+v", recs)
	}
}

func TestRecommendForQueryUnknownUserStillRanks(t *testing.T) {
	e := fixture(t)
	matches := []catalog.Match{
		{Product: &catalog.Product{ID: "x", Category: "laptop", Terms: map[string]float64{}}, Score: 2},
		{Product: &catalog.Product{ID: "y", Category: "laptop", Terms: map[string]float64{}}, Score: 1},
	}
	recs, err := e.RecommendForQuery("stranger", matches, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ProductID != "x" {
		t.Errorf("anonymous rerank = %+v", recs)
	}
}

func TestRecommendForQueryEmpty(t *testing.T) {
	e := fixture(t)
	recs, err := e.RecommendForQuery("alice", nil, 5)
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty query: %v, %v", recs, err)
	}
}

func TestNeighborsOptionLimitsK(t *testing.T) {
	e := fixture(t, WithNeighbors(1))
	if e.k != 1 {
		t.Fatalf("k = %d", e.k)
	}
	// Invalid k ignored.
	e2 := fixture(t, WithNeighbors(-5))
	if e2.k != 10 {
		t.Fatalf("default k = %d", e2.k)
	}
}

// End-to-end sanity on a generated universe: all personalized strategies
// beat random expectation, and hybrid recall is at least CF's on average.
func TestStrategiesOnUniverse(t *testing.T) {
	u, err := workload.Generate(workload.Config{
		Seed: 7, Users: 60, Products: 300, Categories: 6, RelevantPerUser: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := u.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	e := bulkEngine(t, u, profiles, WithNeighbors(8))

	hit := func(strategy Strategy) (hits, total int) {
		for _, usr := range u.Users {
			recs, err := e.Recommend(strategy, usr.ID, "", 10)
			if err != nil {
				t.Fatal(err)
			}
			held := make(map[string]bool)
			for _, id := range usr.Held {
				held[id] = true
			}
			for _, r := range recs {
				if held[r.ProductID] {
					hits++
				}
			}
			total += 10
		}
		return hits, total
	}

	cfHits, n := hit(StrategyCF)
	ifHits, _ := hit(StrategyIF)
	hyHits, _ := hit(StrategyHybrid)
	// Random baseline: 8 held / 300 products ≈ 2.7% of slots.
	randomExpect := float64(n) * 8.0 / 300.0
	t.Logf("hits out of %d slots: cf=%d if=%d hybrid=%d random~%.0f", n, cfHits, ifHits, hyHits, randomExpect)
	if float64(ifHits) < 2*randomExpect {
		t.Errorf("IF barely beats random: %d vs %.0f", ifHits, randomExpect)
	}
	if float64(hyHits) < 2*randomExpect {
		t.Errorf("hybrid barely beats random: %d vs %.0f", hyHits, randomExpect)
	}
	if cfHits == 0 {
		t.Error("CF found nothing at all")
	}
}

// TestHugeWeightsScoreFinite: weights near 1e200, which evidence may carry,
// square past the largest float64. The neighbour search still scores every
// neighbour with a finite cosine, and finds the same neighbours at 1, 3 and
// 16 shards, as shard-count invariance asks.
func TestHugeWeightsScoreFinite(t *testing.T) {
	with := func(id string, a, b float64) *profile.Profile {
		p := profile.NewProfile(id)
		p.Categories["c"] = &profile.Category{Name: "c", Terms: map[string]float64{"a": a, "b": b}}
		return p
	}
	profs := []*profile.Profile{with("target", 1e200, 2e200), with("huge", 1e300, 2e300)}
	for i := 0; i < 30; i++ {
		profs = append(profs, with(fmt.Sprintf("u%02d", i), 1e200*float64(1+i), 1e200*float64(60-i)))
	}
	var want []similarity.Neighbor
	for _, shards := range []int{1, 3, 16} {
		e := NewEngine(catalog.New(), WithShards(shards), WithTolerance(1), WithNeighbors(5))
		if err := e.SetProfiles(profs); err != nil {
			t.Fatal(err)
		}
		got, err := e.Neighbors("target", "c", SearchExact)
		if err != nil {
			t.Fatal(err)
		}
		for _, nb := range got {
			if math.IsNaN(nb.Score) || nb.Score <= 0 || nb.Score > 1+1e-12 {
				t.Fatalf("%d shards: %s scores %v", shards, nb.UserID, nb.Score)
			}
		}
		if len(got) != 5 || got[0].UserID != "huge" {
			t.Fatalf("%d shards: neighbours %+v, want 5 led by huge", shards, got)
		}
		if want == nil {
			want = got
		} else if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%d shards: neighbours %+v, want %+v as at 1 shard", shards, got, want)
		}
	}
}
