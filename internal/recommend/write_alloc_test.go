//go:build !race

package recommend

import (
	"runtime"
	"testing"
	"time"

	"agentrec/internal/profile"
)

// TestWriteAllocBudget holds the durable write paths to allocation
// ceilings, each its measured count + 2 %, rounded up, on benchUniverse's
// first consumer (a 1 511-byte profile) in a durable engine with a journal
// feed, at GOMAXPROCS 1:
//
//   - a dated purchase (Observe with no evidence): 11 allocations, since the store
//     keeps the values a write hands it (kvstore.Store.Apply) instead of
//     copying each;
//   - the Profile Agent's Fig 4.3 buy, one Observe with the bought
//     product's evidence and its sale: 180, since its feed record keeps
//     the sale it is handed; its ceiling stays at 188, set when it
//     measured 184.
//
// The race detector changes what is allocated, so the test runs without it.
func TestWriteAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	u, profiles := benchUniverse(t)
	e, err := Open(u.Catalog, WithPersistence(t.TempDir()), WithJournalFeed(1024))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	user := profiles[0].UserID
	if err := e.SetProfile(profiles[0]); err != nil {
		t.Fatal(err)
	}
	prod := u.Catalog.All()[0]
	ev := prod.Evidence(profile.BehaviourBuy)
	for _, row := range []struct {
		name   string
		budget float64
		write  func() error
	}{
		{"purchase", 12, func() error { return e.Observe(user, nil, []PurchasePair{PurchaseAt(user, prod.ID, time.Now())}) }},
		{"buy", 188, func() error {
			return e.Observe(user, []profile.Evidence{ev}, []PurchasePair{PurchaseAt(user, prod.ID, time.Now())})
		}},
	} {
		if err := row.write(); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(50, func() {
			if err := row.write(); err != nil {
				t.Fatal(err)
			}
		})
		if got > row.budget {
			t.Errorf("%s: %.0f allocations per durable write, budget %.0f", row.name, got, row.budget)
		}
	}
}
