// Community: collaborative filtering over a synthetic consumer community.
// A generated universe of consumers with latent tastes seeds the
// recommendation engine; the example then compares what the mechanism
// recommends for a warm consumer (profile + neighbours), versus a
// cold-start consumer (no history — §2.3's known CF limitation, handled by
// the top-seller fallback).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"agentrec"
	"agentrec/internal/platform"
	"agentrec/internal/recommend"
	"agentrec/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A universe of 200 consumers over 400 products in 8 categories.
	u, err := workload.Generate(workload.Config{
		Seed: 2004, Users: 200, Products: 400, Categories: 8, RelevantPerUser: 16,
	})
	if err != nil {
		return err
	}

	p, err := agentrec.New(
		agentrec.WithMarketplaces(2),
		agentrec.WithProducts(u.Products...),
		agentrec.WithEngineOptions(agentrec.WithNeighbors(10)),
	)
	if err != nil {
		return err
	}
	defer p.Close()

	// Seed the community: every synthetic consumer's learned profile and
	// purchase history enters the engine, as if they had all been shopping
	// through the mechanism.
	if err := seed(p, u); err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// A warm consumer: shops a little, then gets community-powered
	// recommendations.
	warm, err := p.NewConsumer(ctx, "warm-shopper")
	if err != nil {
		return err
	}
	seedUser := u.Users[0]
	var firstCat string
	for cat := range seedUser.Tastes {
		firstCat = cat
		break
	}
	if _, err := warm.Query(ctx, agentrec.Query{Category: firstCat}); err != nil {
		return err
	}
	// Buy two products the seed user liked, acquiring their taste.
	bought := 0
	for _, ev := range seedUser.Train {
		if bought == 2 {
			break
		}
		if _, err := warm.Buy(ctx, ev.ProductID, 0, false); err == nil {
			bought++
		}
	}
	recs, err := warm.Recommendations("", 8)
	if err != nil {
		return err
	}
	fmt.Println("== warm consumer (2 purchases) ==")
	held := make(map[string]bool, len(seedUser.Held))
	for _, id := range seedUser.Held {
		held[id] = true
	}
	hits := 0
	for _, r := range recs {
		marker := ""
		if held[r.ProductID] {
			marker = "  <- matches the latent taste (held-out ground truth)"
			hits++
		}
		fmt.Printf("  %-8s %.3f %s%s\n", r.ProductID, r.Score, r.Source, marker)
	}
	fmt.Printf("  %d/%d recommendations hit the taste-alike's held-out set\n\n", hits, len(recs))

	// A cold-start consumer: no profile, no history. The mechanism falls
	// back to top sellers and says so.
	cold, err := p.NewConsumer(ctx, "cold-shopper")
	if err != nil {
		return err
	}
	coldRecs, err := cold.Recommendations("", 5)
	if err != nil {
		return err
	}
	fmt.Println("== cold-start consumer ==")
	for _, r := range coldRecs {
		fmt.Printf("  %-8s %.3f %s\n", r.ProductID, r.Score, r.Source)
	}

	// The §5.2 future-work features, implemented: the week's hottest
	// merchandise and tied-sale associations for the warm shopper's first
	// purchase.
	fmt.Println("\n== this week's hottest merchandise ==")
	for _, e := range p.Hottest(time.Now(), 7*24*time.Hour, 5) {
		fmt.Printf("  %-8s %d purchases (score %.2f)\n", e.ProductID, e.Count, e.Score)
	}
	if bought > 0 {
		anchor := seedUser.Train[0].ProductID
		ties := p.TiedSales(anchor, 2, 5)
		fmt.Printf("\n== frequently bought with %s ==\n", anchor)
		if len(ties) == 0 {
			fmt.Println("  (no associations with support >= 2 yet)")
		}
		for _, tie := range ties {
			fmt.Printf("  %-8s confidence %.2f (support %d)\n", tie.ProductID, tie.Confidence, tie.Support)
		}
	}
	return nil
}

// seed installs the universe's profiles and purchases into the platform's
// engine. It uses the internal platform handle because seeding bypasses the
// shopping workflows on purpose (200 consumers would otherwise need 200
// logins and trips just to warm the community).
func seed(p *agentrec.Platform, u *workload.Universe) error {
	inner := platformOf(p)
	profiles, err := u.Profiles()
	if err != nil {
		return err
	}
	if err := inner.Engine.SetProfiles(profiles); err != nil {
		return err
	}
	// Timestamps spread over the past week so the §5.2 trending window and
	// tied-sale baskets see the seeded history too.
	now := time.Now()
	i := 0
	for user, pids := range u.Purchases() {
		for _, pid := range pids {
			age := time.Duration(i%(7*24)) * time.Hour
			sale := recommend.PurchaseAt(user, pid, now.Add(-age))
			if err := inner.Engine.Observe(user, nil, []recommend.PurchasePair{sale}); err != nil {
				return err
			}
			i++
		}
	}
	return nil
}

// platformOf reaches the internal composition root. Examples live in the
// same module, so this is ordinary access, not an API promise.
func platformOf(p *agentrec.Platform) *platform.Platform { return p.Internal() }
