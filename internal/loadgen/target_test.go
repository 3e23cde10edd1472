package loadgen

import (
	"testing"

	"agentrec/internal/catalog"
	"agentrec/internal/platform"
	"agentrec/internal/recommend"
	"agentrec/internal/workload"
)

// seededEngine is a scenario's community as RunScenario seeds it, on one
// in-memory engine that is its own writer.
func seededEngine(t *testing.T, u *workload.Universe) *recommend.Engine {
	t.Helper()
	profiles, err := u.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	e := recommend.NewEngine(u.Catalog)
	if err := platform.Seed(e, e, profiles, u.Purchases()); err != nil {
		t.Fatal(err)
	}
	return e
}

// strayBuyers counts the consumers with a profile who bought a product the
// catalogue files in a category where their preference value is 0.
func strayBuyers(t *testing.T, e *recommend.Engine, cat *catalog.Catalog) int {
	t.Helper()
	snap := e.Snapshot()
	strays := 0
	for _, user := range snap.Users() {
		p := snap.Profile(user)
		for pid := range snap.Purchases(user) {
			prod, err := cat.Get(pid)
			if err != nil {
				t.Fatal(err)
			}
			if p.PreferenceValue(prod.Category) == 0 {
				strays++
				break
			}
		}
	}
	return strays
}

// TestExecutorRefreshKeepsPurchaseEvidence: a purchase in a category the
// seeded consumer holds no evidence in, then a refresh of that consumer,
// leaves both observations on the stored profile — a refresh updates what
// the run taught the consumer, it does not reinstall the seeded profile.
func TestExecutorRefreshKeepsPurchaseEvidence(t *testing.T) {
	u, err := workload.Generate(workload.Config{Seed: 3, Users: 40, Products: 120, Categories: 6})
	if err != nil {
		t.Fatal(err)
	}
	e := seededEngine(t, u)
	user := u.Users[0].ID
	seeded, err := e.Profile(user)
	if err != nil {
		t.Fatal(err)
	}
	var bought, other *catalog.Product
	for _, p := range u.Catalog.All() {
		switch {
		case bought == nil && seeded.PreferenceValue(p.Category) == 0:
			bought = p
		case other == nil && seeded.PreferenceValue(p.Category) > 0:
			other = p
		}
	}
	if bought == nil || other == nil {
		t.Fatalf("consumer %s has evidence in every category or in none", user)
	}

	x := &opExec{cat: u.Catalog}
	for _, op := range []workload.Op{
		{Kind: workload.OpRecordPurchase, UserID: user, ProductID: bought.ID},
		{Kind: workload.OpSetProfile, UserID: user, ObserveProducts: []string{other.ID}},
	} {
		if err := x.apply(e, e, op); err != nil {
			t.Fatalf("%v: %v", op.Kind, err)
		}
	}
	got, err := e.Profile(user)
	if err != nil {
		t.Fatal(err)
	}
	if v := got.PreferenceValue(bought.Category); v <= 0 {
		t.Errorf("preference value in the bought category %s = %g after the refresh, want > 0", bought.Category, v)
	}
	if got.Observed != seeded.Observed+2 {
		t.Errorf("Observed = %d, want the seeded %d plus 2", got.Observed, seeded.Observed)
	}
	if !e.Snapshot().Purchases(user)[bought.ID] {
		t.Errorf("the purchase of %s was not recorded", bought.ID)
	}
}

// TestScenarioWritesMakeNoStrayBuyers: every library scenario's write
// traffic, at smoke size on the community RunScenario seeds, leaves no
// stray buyer — a consumer who bought in a category where they hold no
// evidence — since each write is the Profile Agent's Observe.
func TestScenarioWritesMakeNoStrayBuyers(t *testing.T) {
	const writes = 5000
	for _, s := range Library {
		t.Run(s.Name, func(t *testing.T) {
			s = s.Smoke()
			u, err := workload.Generate(workload.Config{Seed: s.Seed, Users: s.Users, Products: s.Products, Categories: s.Categories})
			if err != nil {
				t.Fatal(err)
			}
			traffic, _, err := s.traffic(u)
			if err != nil {
				t.Fatal(err)
			}
			e := seededEngine(t, u)
			if n := strayBuyers(t, e, u.Catalog); n != 0 {
				t.Fatalf("%d stray buyers after seeding", n)
			}
			x := &opExec{cat: u.Catalog}
			applied := 0
			for i := uint64(0); applied < writes; i++ {
				op := traffic.Op(i)
				if op.Kind == workload.OpRecommend {
					continue
				}
				if err := x.apply(e, e, op); err != nil {
					t.Fatalf("op %d (%v): %v", i, op.Kind, err)
				}
				applied++
			}
			if n := strayBuyers(t, e, u.Catalog); n != 0 {
				t.Errorf("%d stray buyers after %d writes", n, applied)
			}
		})
	}
}
