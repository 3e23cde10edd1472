package recommend

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"time"
)

// This file implements the paper's §5.2 future-work directions 2 and 3:
// "Provide the more kinds of recommendation information such as weekly
// hottest merchandise, and tied-sale information."
//
//   - Trending ("weekly hottest"): a purchase's entry in the consumer's
//     purchase list carries its time; the hottest list ranks the purchases
//     inside a sliding window, weighting recent ones higher.
//   - TiedSales ("tied-sale information", frequently-bought-together):
//     co-purchase pair counts across consumers, ranked by confidence
//     P(other | product), with a minimum support to keep noise out.
//
// Both are reads over the engine's ordinary shards, so they are journaled,
// replicated and recovered with them: every caught-up replica and
// every reopened journal answers the same. Nothing here reads the wall
// clock — the purchase's time and the window's end come from the caller
// (agentlint's determinism check holds this file to that).

// TrendEntry is one product in a trending listing.
type TrendEntry struct {
	ProductID string
	Count     int     // distinct buyers whose latest purchase of it is inside the window
	Score     float64 // recency-weighted count
}

// TiedSale is one frequently-bought-together association.
type TiedSale struct {
	ProductID  string  // the associated product
	Support    int     // consumers who bought both
	Confidence float64 // P(ProductID | anchor) among the anchor's buyers
}

// PurchaseAt is the pair userID's purchase of productID made at at
// journals: its time in milliseconds since the Unix epoch, truncated toward
// the past so a purchase stamped `now` lies inside a window ending `now`.
// The zero time — and the epoch instant itself — is 0, an undated purchase.
// A sale written through Observe feeds the CF history, the top-seller
// counts, Trending (when dated) and TiedSales. Duplicate sales are
// idempotent per user — the list keeps the later time — but still bump
// popularity. The time journaled, and carried to followers in the write's
// feed record, is the time kept, so a follower replays the owner's value
// rather than reading a clock of its own.
func PurchaseAt(userID, productID string, at time.Time) PurchasePair {
	pp := PurchasePair{UserID: userID, ProductID: productID}
	if !at.IsZero() {
		pp.AtEpochMS = at.UnixMilli()
	}
	return pp
}

// eachBasket calls fn with every consumer's record, one shard at a time
// under that shard's read lock.
func (e *Engine) eachBasket(fn func(c *consumer)) {
	for _, sh := range e.shards {
		sh.mu.RLock()
		for _, c := range sh.consumers {
			fn(c)
		}
		sh.mu.RUnlock()
	}
}

// Trending returns up to n products ranked by the dated purchases within the
// window ending at now. A consumer counts once per product, at their latest
// purchase of it. Score halves per half-window of age, so a spike earlier in
// the window ranks below the same spike just now.
func (e *Engine) Trending(now time.Time, window time.Duration, n int) []TrendEntry {
	nowMS, cutoff := now.UnixMilli(), now.Add(-window).UnixMilli()
	var hits []purchase
	e.eachBasket(func(c *consumer) {
		for _, p := range c.bought {
			if p.at != 0 && p.at >= cutoff && p.at <= nowMS {
				hits = append(hits, p)
			}
		}
	})
	// Scores are float sums: adding each product's weights in time order,
	// not in the order shards hold consumers, makes every replica's answer
	// the same to the last bit.
	slices.SortFunc(hits, func(a, b purchase) int {
		return cmp.Or(strings.Compare(a.product, b.product), cmp.Compare(a.at, b.at))
	})
	out := make([]TrendEntry, 0)
	for _, h := range hits {
		if len(out) == 0 || out[len(out)-1].ProductID != h.product {
			out = append(out, TrendEntry{ProductID: h.product})
		}
		entry := &out[len(out)-1]
		entry.Count++
		// Halve per half-window: weight = 2^(-2·age/window).
		weight := 1.0
		if window > 0 {
			age := time.Duration(nowMS-h.at) * time.Millisecond
			weight = math.Exp2(-2 * float64(age) / float64(window))
		}
		entry.Score += weight
	}
	return topN(out, n, func(a, b TrendEntry) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), strings.Compare(a.ProductID, b.ProductID))
	})
}

// TiedSales returns up to n products frequently bought together with
// productID: associations with at least minSupport co-buyers, ranked by
// confidence then support. Undated purchases count like dated ones.
func (e *Engine) TiedSales(productID string, minSupport, n int) []TiedSale {
	if minSupport < 1 {
		minSupport = 1
	}
	co := make(map[string]int)
	anchorBuyers := 0
	e.eachBasket(func(c *consumer) {
		if _, bought := c.find(productID); !bought {
			return
		}
		anchorBuyers++
		for _, p := range c.bought {
			if p.product != productID {
				co[p.product]++
			}
		}
	})
	if anchorBuyers == 0 {
		return nil
	}
	out := make([]TiedSale, 0, len(co))
	for other, support := range co {
		if support < minSupport {
			continue
		}
		out = append(out, TiedSale{
			ProductID:  other,
			Support:    support,
			Confidence: float64(support) / float64(anchorBuyers),
		})
	}
	return topN(out, n, func(a, b TiedSale) int {
		return cmp.Or(cmp.Compare(b.Confidence, a.Confidence), cmp.Compare(b.Support, a.Support),
			strings.Compare(a.ProductID, b.ProductID))
	})
}
