package recommend

// Paged snapshot catch-up: the one way a follower — in process or over TCP —
// replaces a shard wholesale. A whole shard can outgrow any transport frame
// budget, so its state always travels in bounded pages, never inside a tail
// reply. The protocol is stateless on the owner:
//
//   - The cut is pinned to one (epoch, seq): the follower's first page
//     request names the pin it was handed (or a stale one), and every page
//     is cut from live state under the shard's read lock only after
//     verifying the feed still sits exactly at that pin. Every state change
//     of a shard moves its feed head — a write emits a record, a wholesale
//     replace skips a number — so an unchanged pin proves the same cut.
//   - Pages walk the shard in a stable key order — profiles ascending by
//     consumer id, then purchases ascending by (consumer, product), then
//     sell totals ascending by product — so a continuation token (an opaque
//     (section, start-key) cursor) names an exact resume point.
//   - If the pin is gone (the shard mutated mid-transfer, or the owner
//     restarted and regenerated its feed epoch), the owner restarts the
//     transfer: it re-pins at its current cut and serves the first page of
//     the new transfer. The follower detects the changed (epoch, seq),
//     discards the pages it assembled, and accumulates afresh.
//
// The follower side lives in Replicator.pullShardPaged, which decodes and
// shard-checks each page as it arrives (ShardData.addPage); the transport
// bridge (the "snap-page" journal sub-operation and the per-page byte
// budget) in internal/replnet.

import (
	"encoding/base64"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// SellCount is one product's sell total attributed to the paged shard, the
// ordered-page form of ShardData.Sells.
type SellCount struct {
	ProductID string `json:"product"`
	Total     int64  `json:"total"`
}

// SnapshotPage is one page of a paged shard-snapshot transfer. Every page
// carries the (Epoch, Seq) pin of the cut it belongs to; a page whose pin
// differs from the one the follower requested is the first page of a
// restarted transfer. Next is the continuation token for the following
// page, opaque to the follower; empty means this page completes the
// snapshot.
type SnapshotPage struct {
	Shards    int            `json:"shards"` // owner's shard count, for config-drift detection
	Epoch     uint64         `json:"epoch"`
	Seq       uint64         `json:"seq"`
	Profiles  [][]byte       `json:"profiles,omitempty"` // marshaled, ascending consumer id
	Purchases []PurchasePair `json:"purchases,omitempty"`
	Sells     []SellCount    `json:"sells,omitempty"`
	Next      string         `json:"next,omitempty"`
}

// Page sections, in transfer order.
const (
	pageSecProfiles  = "p"
	pageSecPurchases = "u"
	pageSecSells     = "s"
)

// encodePageToken builds the opaque continuation token: the section and the
// key the next page starts at (inclusive), base64 so the NUL separator in
// purchase keys survives any textual transport.
func encodePageToken(section, startKey string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(section + "\x00" + startKey))
}

// decodePageToken parses a continuation token. The empty token means the
// start of the transfer.
func decodePageToken(token string) (section, startKey string, err error) {
	if token == "" {
		return pageSecProfiles, "", nil
	}
	raw, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil {
		return "", "", fmt.Errorf("recommend: malformed snapshot page token: %w", err)
	}
	section, startKey, ok := strings.Cut(string(raw), "\x00")
	if !ok || (section != pageSecProfiles && section != pageSecPurchases && section != pageSecSells) {
		return "", "", fmt.Errorf("recommend: malformed snapshot page token %q", token)
	}
	return section, startKey, nil
}

// Per-entry size estimates for the page budget, matching the JSON wire
// encoding closely enough that a page at the budget still fits the caller's
// frame: a marshaled profile travels base64-encoded inside the page JSON
// (4/3 expansion plus quotes, and base64 output never needs escaping),
// purchase pairs and sell counts as small objects with fixed field names
// whose id strings are charged at their escaped length.
func profileEntryCost(encLen int) int { return (encLen+2)/3*4 + 4 }
func purchaseEntryCost(p PurchasePair) int {
	cost := jsonStringCost(p.UserID) + jsonStringCost(p.ProductID) + 24
	if p.AtEpochMS != 0 {
		cost += 36 // ,"at_epoch_ms": and up to 20 digits with the sign
	}
	return cost
}
func sellEntryCost(pid string) int { return jsonStringCost(pid) + 40 }

// jsonStringCost is the encoded length of s inside a JSON string: ids are
// not guaranteed printable, and an estimate that ignored escaping could
// build a page up to 6x its budget — enough to breach the transport's hard
// frame cap, the exact wedge paging exists to remove.
func jsonStringCost(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		// U+2028/U+2029 (E2 80 A8/A9) also encode as \u202X: 6 bytes for 3.
		if s[i] == 0xE2 && i+2 < len(s) && s[i+1] == 0x80 && (s[i+2] == 0xA8 || s[i+2] == 0xA9) {
			n += 6
			i += 2
			continue
		}
		switch c := s[i]; {
		case c == '"' || c == '\\':
			n += 2
		case c < 0x20, c == '<', c == '>', c == '&': // \u00XX (json HTML-escapes <>& too)
			n += 6
		default:
			n++
		}
	}
	return n
}

// SnapshotPage serves one page of shard's snapshot for the cut pinned at
// (epoch, seq); token resumes a transfer in flight (empty: from the start).
// maxBytes bounds the page's estimated encoded size (<= 0 for a default);
// a single entry larger than the whole budget is served as a page of its
// own rather than erroring, leaving the transport's hard frame cap as the
// only real ceiling. If the pin no longer matches the owner's live state
// the transfer restarts: the reply is the first page of a fresh cut, its
// changed (Epoch, Seq) telling the follower to discard what it buffered.
func (e *Engine) SnapshotPage(shard int, epoch, seq uint64, token string, maxBytes int) (SnapshotPage, error) {
	if e.feed == nil {
		return SnapshotPage{}, ErrNoJournalFeed
	}
	if shard < 0 || shard >= e.nshards {
		return SnapshotPage{}, fmt.Errorf("%w: %d of %d", ErrBadShard, shard, e.nshards)
	}
	if maxBytes <= 0 {
		maxBytes = maxFeedRecordBytes
	}
	sh := e.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if cur := e.feed.next(shard) - 1; epoch != e.feed.epoch || seq != cur {
		// The pinned cut is gone: the shard mutated since the pin (every
		// write bumps the seq) or the owner restarted (fresh epoch).
		// Restart the transfer at the current cut.
		epoch, seq, token = e.feed.epoch, cur, ""
	}
	section, startKey, err := decodePageToken(token)
	if err != nil {
		return SnapshotPage{}, err
	}
	ids := slices.Sorted(maps.Keys(sh.consumers))

	pg := SnapshotPage{Shards: e.nshards, Epoch: epoch, Seq: seq}
	used := 0
	// fits reports whether an entry of the given cost may join the page,
	// closing the page at next (section, key) when it may not. A lone
	// oversized entry is always admitted.
	fits := func(cost int, sec, key string) bool {
		if used > 0 && used+cost > maxBytes {
			pg.Next = encodePageToken(sec, key)
			return false
		}
		used += cost
		return true
	}

	if section == pageSecProfiles {
		for _, id := range ids[sort.SearchStrings(ids, startKey):] {
			p := sh.consumers[id].prof
			if p == nil {
				continue
			}
			// Marshal lazily: once the page closes, the remaining profiles
			// (potentially the whole tail of a large shard) are never
			// encoded on this request.
			enc, err := p.Marshal()
			if err != nil {
				return SnapshotPage{}, fmt.Errorf("recommend: encoding profile %s for snapshot page: %w", id, err)
			}
			if !fits(profileEntryCost(len(enc)), pageSecProfiles, id) {
				return pg, nil
			}
			pg.Profiles = append(pg.Profiles, enc)
		}
		section, startKey = pageSecPurchases, ""
	}

	if section == pageSecPurchases {
		// Ids hold no NUL (validID), so (consumer, product) order is
		// purchaseKey order: the pairs from startKey on are its consumer's
		// from its product on, then every later consumer's.
		user, product, _ := strings.Cut(startKey, "\x00")
		for _, id := range ids[sort.SearchStrings(ids, user):] {
			for _, b := range sh.consumers[id].bought {
				if id == user && b.product < product {
					continue
				}
				pp := PurchasePair{UserID: id, ProductID: b.product, AtEpochMS: b.at}
				if !fits(purchaseEntryCost(pp), pageSecPurchases, purchaseKey(pp)) {
					return pg, nil
				}
				pg.Purchases = append(pg.Purchases, pp)
			}
		}
		startKey = ""
	}

	pids := slices.Sorted(maps.Keys(sh.sells))
	for _, pid := range pids[sort.SearchStrings(pids, startKey):] {
		if !fits(sellEntryCost(pid), pageSecSells, pid) {
			return pg, nil
		}
		pg.Sells = append(pg.Sells, SellCount{ProductID: pid, Total: sh.sells[pid]})
	}
	return pg, nil // Next stays empty: the snapshot is complete
}

// purchaseKey is the stable sort key of one purchase pair; NUL sorts before
// every printable byte, so a consumer's pairs group contiguously.
func purchaseKey(p PurchasePair) string { return p.UserID + "\x00" + p.ProductID }

// addPage decodes pg onto d, the state a paged transfer assembles, as the
// page arrives: a bad page fails the pull before anything is installed, and
// no second, encoded copy of the shard is held meanwhile.
func (d *ShardData) addPage(e *Engine, shard int, pg SnapshotPage) error {
	return d.add(shard, e.nshards, pg)
}

// add is addPage for shard of shards, and restart recovery's assembly too. A consumer filed under another shard is refused, and so is
// a sell total below one, which no purchase writes and which would cancel
// other shards' sales in the served sum.
func (d *ShardData) add(shard, shards int, pg SnapshotPage) error {
	profs, err := decodeProfiles(pg.Profiles, shard, shards)
	if err != nil {
		return err
	}
	d.Profiles = append(d.Profiles, profs...)
	if d.Purchases == nil {
		d.Purchases = make(map[string]map[string]int64)
		d.Sells = make(map[string]int64)
	}
	for _, pp := range pg.Purchases {
		if shardOf(pp.UserID, shards) != shard {
			return fmt.Errorf("%w: purchase by %s in shard %d", ErrShardMismatch, pp.UserID, shard)
		}
		if d.Purchases[pp.UserID] == nil {
			d.Purchases[pp.UserID] = make(map[string]int64)
		}
		d.Purchases[pp.UserID][pp.ProductID] = pp.AtEpochMS
	}
	for _, sc := range pg.Sells {
		if sc.Total < 1 {
			return fmt.Errorf("recommend: sell count %d for %q is not positive", sc.Total, sc.ProductID)
		}
		d.Sells[sc.ProductID] = sc.Total
	}
	return nil
}
