package recommend

import (
	"fmt"
	"sync"
	"testing"

	"agentrec/internal/catalog"
	"agentrec/internal/profile"
	"agentrec/internal/workload"
)

// benchUniverse is the benchmark's shape at a fifth of its community:
// 2 000 consumers over 1 200 products in 16 categories.
func benchUniverse(t testing.TB) (*workload.Universe, []*profile.Profile) {
	t.Helper()
	u, err := workload.Generate(workload.Config{Seed: 31, Users: 2000, Products: 1200, Categories: 16})
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := u.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	return u, profiles
}

func bulkEngine(t testing.TB, u *workload.Universe, profiles []*profile.Profile, opts ...Option) *Engine {
	t.Helper()
	e := NewEngine(u.Catalog, opts...)
	if err := e.SetProfiles(profiles); err != nil {
		t.Fatal(err)
	}
	for user, pids := range u.Purchases() {
		for _, pid := range pids {
			if err := e.RecordPurchase(user, pid); err != nil {
				t.Fatal(err)
			}
		}
	}
	return e
}

// TestIFilterFollowsCatalogue: information filtering reads the catalogue's
// content view, so a product that changes category or terms, or is removed,
// shows on the very next read — and a stock movement rebuilds nothing.
func TestIFilterFollowsCatalogue(t *testing.T) {
	e := fixture(t)
	ids := func(recs []Rec) string {
		out := make([]string, len(recs))
		for i, r := range recs {
			out[i] = r.ProductID
		}
		return fmt.Sprint(out)
	}
	read := func() string {
		t.Helper()
		recs, err := e.Recommend(StrategyIF, "alice", "laptop", 5)
		if err != nil {
			t.Fatal(err)
		}
		return ids(recs)
	}
	if got := read(); got != "[lap2]" {
		t.Fatalf("IF for alice = %s, want [lap2]", got)
	}
	view := e.catalog.View()
	if _, err := e.catalog.AdjustStock("lap2", -1); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != "[lap2]" || e.catalog.View() != view {
		t.Fatalf("after AdjustStock: IF = %s, view rebuilt = %v", got, e.catalog.View() != view)
	}
	// lap3 gains a term alice weighs; cam1 moves into her category.
	upsert := func(id, category string, terms map[string]float64) {
		t.Helper()
		if err := e.catalog.Upsert(&catalog.Product{ID: id, Category: category, Terms: terms, Stock: 1}); err != nil {
			t.Fatal(err)
		}
	}
	upsert("lap3", "laptop", map[string]float64{"hdd": 1, "light": 0.2})
	if got := read(); got != "[lap2 lap3]" {
		t.Fatalf("after a terms change: IF = %s, want [lap2 lap3]", got)
	}
	upsert("cam1", "laptop", map[string]float64{"ssd": 5})
	if got := read(); got != "[cam1 lap2 lap3]" {
		t.Fatalf("after a category change: IF = %s, want [cam1 lap2 lap3]", got)
	}
	if err := e.catalog.Remove("lap2"); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != "[cam1 lap3]" {
		t.Fatalf("after Remove: IF = %s, want [cam1 lap3]", got)
	}
	// Top sellers in a category consult the same view: lap2 is gone, and
	// carol's cam1 now counts as a laptop.
	if got := ids(e.topSellers("laptop", 5, "topseller")); got != "[lap1 cam1]" {
		t.Fatalf("laptop top sellers = %s, want [lap1 cam1]", got)
	}
}

// TestIFilterBesideCatalogueWrites runs reads beside stock movements and
// product replacements (run under -race).
func TestIFilterBesideCatalogueWrites(t *testing.T) {
	u, profiles := soakUniverse(t)
	e := loadEngine(u, profiles)
	var writers sync.WaitGroup
	writers.Add(2)
	go func() {
		defer writers.Done()
		for i := 0; i < 3000; i++ {
			if _, err := u.Catalog.AdjustStock(u.Products[i%len(u.Products)].ID, 1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < 300; i++ {
			if err := u.Catalog.Upsert(u.Products[i%len(u.Products)]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() { writers.Wait(); close(done) }()
	for i := 0; ; i++ {
		select {
		case <-done:
			return
		default:
		}
		p := profiles[i%len(profiles)]
		for _, s := range []Strategy{StrategyIF, StrategyAuto} {
			if _, err := e.Recommend(s, p.UserID, neighborCategory(p, ""), 10); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestInTasteReadAllocBudget: one in-taste StrategyAuto read over 2 000
// consumers and 1 200 products allocates a few dozen objects — score maps,
// ranked lists, the answer: at most 30 over these 20 consumers, with or
// without -race, and the budget is that + 2 %, rounded up. A read that
// copied the catalogue took ~3 500; anything that reintroduces a
// per-product, per-candidate or per-purchase copy breaks the budget.
func TestInTasteReadAllocBudget(t *testing.T) {
	u, profiles := benchUniverse(t)
	e := bulkEngine(t, u, profiles)
	const budget = 31
	for _, p := range profiles[:20] {
		cat := neighborCategory(p, "")
		read := func() {
			if _, err := e.Recommend(StrategyAuto, p.UserID, cat, 10); err != nil {
				t.Fatal(err)
			}
		}
		read()
		if got := testing.AllocsPerRun(10, read); got > budget {
			t.Fatalf("%s in %s: %.0f allocations per read, budget %d", p.UserID, cat, got, budget)
		}
	}
}
