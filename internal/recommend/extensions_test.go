package recommend

import (
	"math"
	"testing"
	"time"

	"agentrec/internal/catalog"
)

func extEngine(t *testing.T) *Engine {
	t.Helper()
	cat := catalog.New()
	for _, id := range []string{"a", "b", "c", "d"} {
		if err := cat.Add(&catalog.Product{
			ID: id, Name: id, Category: "x", PriceCents: 100, SellerID: "s", Stock: 10,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return NewEngine(cat)
}

func TestTrendingWindowFilters(t *testing.T) {
	e := extEngine(t)
	now := time.Date(2026, 6, 12, 12, 0, 0, 0, time.UTC)
	week := 7 * 24 * time.Hour

	// Inside the window: "a" twice, "b" once. Outside: "c" many times.
	e.RecordPurchaseAt("u1", "a", now.Add(-time.Hour))
	e.RecordPurchaseAt("u2", "a", now.Add(-2*time.Hour))
	e.RecordPurchaseAt("u3", "b", now.Add(-24*time.Hour))
	for i := 0; i < 10; i++ {
		e.RecordPurchaseAt("u4", "c", now.Add(-8*24*time.Hour))
	}

	got := e.Trending(now, week, 10)
	if len(got) != 2 {
		t.Fatalf("Trending = %+v, want 2 entries", got)
	}
	if got[0].ProductID != "a" || got[0].Count != 2 {
		t.Errorf("hottest = %+v, want a with 2", got[0])
	}
	for _, entry := range got {
		if entry.ProductID == "c" {
			t.Error("stale product in trending window")
		}
	}
}

func TestTrendingRecencyWeighting(t *testing.T) {
	e := extEngine(t)
	now := time.Date(2026, 6, 12, 12, 0, 0, 0, time.UTC)
	week := 7 * 24 * time.Hour
	// Same count, different recency: the fresh one ranks first.
	e.RecordPurchaseAt("u1", "fresh", now.Add(-time.Hour))
	e.RecordPurchaseAt("u2", "stale", now.Add(-6*24*time.Hour))
	got := e.Trending(now, week, 10)
	if len(got) != 2 || got[0].ProductID != "fresh" {
		t.Fatalf("Trending = %+v, want fresh first", got)
	}
	if got[0].Score <= got[1].Score {
		t.Errorf("fresh score %v !> stale score %v", got[0].Score, got[1].Score)
	}
	if got[0].Count != got[1].Count {
		t.Errorf("counts differ: %+v", got)
	}
}

func TestTrendingLimitsAndEmpty(t *testing.T) {
	e := extEngine(t)
	now := time.Now()
	if got := e.Trending(now, time.Hour, 5); len(got) != 0 {
		t.Errorf("empty engine Trending = %v", got)
	}
	for i, id := range []string{"a", "b", "c"} {
		e.RecordPurchaseAt("u", id, now.Add(-time.Duration(i)*time.Minute))
	}
	if got := e.Trending(now, time.Hour, 2); len(got) != 2 {
		t.Errorf("limit not applied: %v", got)
	}
}

func TestTiedSales(t *testing.T) {
	e := extEngine(t)
	now := time.Now()
	// Baskets: u1{a,b}, u2{a,b}, u3{a,c}, u4{b}.
	e.RecordPurchaseAt("u1", "a", now)
	e.RecordPurchaseAt("u1", "b", now)
	e.RecordPurchaseAt("u2", "a", now)
	e.RecordPurchaseAt("u2", "b", now)
	e.RecordPurchaseAt("u3", "a", now)
	e.RecordPurchaseAt("u3", "c", now)
	e.RecordPurchaseAt("u4", "b", now)

	got := e.TiedSales("a", 1, 10)
	if len(got) != 2 {
		t.Fatalf("TiedSales = %+v", got)
	}
	// b co-bought by 2 of a's 3 buyers; c by 1 of 3.
	if got[0].ProductID != "b" || got[0].Support != 2 {
		t.Errorf("top tie = %+v, want b support 2", got[0])
	}
	if math.Abs(got[0].Confidence-2.0/3) > 1e-12 {
		t.Errorf("confidence = %v, want 2/3", got[0].Confidence)
	}
	// minSupport filters the weak pair.
	got = e.TiedSales("a", 2, 10)
	if len(got) != 1 || got[0].ProductID != "b" {
		t.Errorf("minSupport filter: %+v", got)
	}
}

func TestTiedSalesUnknownProduct(t *testing.T) {
	e := extEngine(t)
	if got := e.TiedSales("nothing", 1, 5); got != nil {
		t.Errorf("TiedSales for unbought product = %v", got)
	}
}

func TestTiedSalesDuplicatePurchasesCountOnce(t *testing.T) {
	e := extEngine(t)
	now := time.Now()
	// u1 buys a twice and b once: support must still be 1.
	e.RecordPurchaseAt("u1", "a", now)
	e.RecordPurchaseAt("u1", "a", now)
	e.RecordPurchaseAt("u1", "b", now)
	got := e.TiedSales("a", 1, 5)
	if len(got) != 1 || got[0].Support != 1 || got[0].Confidence != 1 {
		t.Errorf("TiedSales = %+v", got)
	}
}

func TestRecordPurchaseAtFeedsCoreHistory(t *testing.T) {
	e := extEngine(t)
	e.RecordPurchaseAt("u1", "a", time.Now())
	recs, err := e.Recommend(StrategyTopSeller, "", "", 5)
	if err != nil || len(recs) != 1 || recs[0].ProductID != "a" {
		t.Errorf("top sellers after RecordPurchaseAt = %v, %v", recs, err)
	}
}
