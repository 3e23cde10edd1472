package platform

import (
	"slices"
	"testing"

	"agentrec/internal/recommend"
	"agentrec/internal/workload"
)

// TestCategoryReadAnswersInCategory: Recommend answers "up to n products
// for userID in category". On a one- and a three-server platform, every
// strategy's answer to a read in a category lies in that category, on
// every engine, for every consumer and category, in taste or not.
func TestCategoryReadAnswersInCategory(t *testing.T) {
	u, err := workload.Generate(workload.Config{Seed: 20, Users: 80, Products: 200, Categories: 6})
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := u.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	categoryOf := make(map[string]string, len(u.Products))
	var categories []string
	for _, prod := range u.Products {
		categoryOf[prod.ID] = prod.Category
		if !slices.Contains(categories, prod.Category) {
			categories = append(categories, prod.Category)
		}
	}
	strategies := []recommend.Strategy{recommend.StrategyCF, recommend.StrategyIF, recommend.StrategyHybrid, recommend.StrategyTopSeller, recommend.StrategyAuto}
	for _, servers := range []int{1, 3} {
		p, err := New(Config{Marketplaces: 1, BuyerServers: servers, Products: u.Products})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if err := p.SeedCommunity(profiles, u.Purchases()); err != nil {
			t.Fatal(err)
		}
		for i, e := range engines(p) {
			for _, s := range strategies {
				answers, strays := 0, 0
				for _, pr := range profiles {
					for _, category := range categories {
						recs, err := e.Recommend(s, pr.UserID, category, 10)
						if err != nil {
							t.Fatal(err)
						}
						answers += len(recs)
						for _, r := range recs {
							if categoryOf[r.ProductID] != category {
								strays++
							}
						}
					}
				}
				if answers == 0 || strays > 0 {
					t.Errorf("%d servers, engine %d, %v: %d of %d answers to category reads lie outside the category",
						servers, i, s, strays, answers)
				}
			}
		}
	}
}
