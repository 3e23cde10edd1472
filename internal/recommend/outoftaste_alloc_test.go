//go:build !race

package recommend

import (
	"testing"

	"agentrec/internal/profile"
	"agentrec/internal/workload"
)

// outOfTaste returns a category of u's catalogue where p has no evidence.
func outOfTaste(u *workload.Universe, p *profile.Profile) string {
	for _, it := range u.Catalog.View().Items("") {
		if p.Categories[it.Category] == nil {
			return it.Category
		}
	}
	return ""
}

// TestOutOfTasteReadAllocBudget is TestInTasteReadAllocBudget for a read in
// a category where the target has no evidence, so CF's neighbour search
// scores the category's stray buyers (Snapshot.strays) and walks, as far as
// they can still make the top k, the consumers who share a category with
// the target (Snapshot.outOfTaste), its list heads on the stack: at most 6
// allocations over these 20 consumers (9 when the scoring loop kept its
// state outside its pooled scratch), and the budget is that + 2 %, rounded
// up. The race detector's count differs, so the test runs without it.
func TestOutOfTasteReadAllocBudget(t *testing.T) {
	u, profiles := benchUniverse(t)
	e := bulkEngine(t, u, profiles)
	const budget = 7
	for _, p := range profiles[:20] {
		cat := outOfTaste(u, p)
		if cat == "" {
			t.Fatalf("%s has evidence in every category", p.UserID)
		}
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
