package recommend

// Paged snapshot catch-up: the one way a follower — in process or over TCP —
// replaces a shard wholesale. A whole shard can outgrow any transport frame
// budget, so its state always travels in bounded pages, never inside a tail
// reply. Every page of a transfer is cut from one pin:
//
//   - A first page (empty token) pins the shard at (feed epoch, seq = its
//     version): its record pointers in page order and a copy of its sell
//     totals. Records are immutable, so every page is cut from the pin with
//     no shard lock and no sort while the shard keeps taking writes, and
//     the follower tails the writes after seq from the feed ring — a
//     snapshot, then the log after it, as in Raft's InstallSnapshot.
//   - Pages walk the pin in a stable key order — profiles ascending by
//     consumer id, then purchases ascending by (consumer, product), then
//     sell totals ascending by product — so a continuation token (an opaque
//     (section, start-key) cursor) names an exact resume point.
//   - A shard drops a pin once its last page is served, once the feed ring
//     no longer holds the record after it (the follower could not tail on
//     from it), past maxShardPins (the oldest), and all of them on a
//     wholesale replace (shard.retire). A continuation at a dropped pin is
//     answered with the first page of the current one: the follower ends
//     the transfer, and its next pull starts again.
//
// The follower side lives in Replicator.pullShardPaged, which decodes,
// shard-checks and order-checks each page as it arrives (ShardData.add);
// the transport bridge (the "snap-page" journal sub-operation and the
// per-page byte budget) in internal/replnet.

import (
	"cmp"
	"encoding/base64"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"agentrec/internal/profile"
)

// SellCount is one product's sell total attributed to the paged shard.
type SellCount struct {
	ProductID string `json:"product"`
	Total     int64  `json:"total"`
}

// SnapshotPage is one page of a paged shard-snapshot transfer. Every page
// carries the (Epoch, Seq) pin of the cut it belongs to: a first page names
// the pin the follower adopts, and a continuation answered at another pin
// means the requested one expired. Next is the continuation token for the
// following page, opaque to the follower; empty means this page completes
// the snapshot.
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

// SnapshotPage serves one page of shard's snapshot: with an empty token the
// first page of a transfer at the shard's current pin, whatever (epoch,
// seq) names; with a token the next page of the transfer pinned at (epoch,
// seq), or the first page at the current pin if that one was dropped.
// maxBytes bounds the page's estimated encoded size (<= 0 for a default); a
// single entry larger than the whole budget is served as a page of its own
// rather than erroring, leaving the transport's hard frame cap as the only
// real ceiling.
func (e *Engine) SnapshotPage(shard int, epoch, seq uint64, token string, maxBytes int) (SnapshotPage, error) {
	if e.feedCap == 0 {
		return SnapshotPage{}, ErrNoJournalFeed
	}
	if shard < 0 || shard >= e.nshards {
		return SnapshotPage{}, fmt.Errorf("%w: %d of %d", ErrBadShard, shard, e.nshards)
	}
	if maxBytes <= 0 {
		maxBytes = maxBatchBytes
	}
	section, startKey, err := decodePageToken(token)
	if err != nil {
		return SnapshotPage{}, err
	}
	sh := e.shards[shard]
	cont := token != "" && epoch == e.feedEpoch
	p := sh.pinFor(cont, seq)
	if !cont || p.seq != seq {
		section, startKey = pageSecProfiles, ""
	}
	pg := SnapshotPage{Shards: e.nshards, Epoch: e.feedEpoch, Seq: p.seq}
	if err := p.cut(&pg, section, startKey, maxBytes); err != nil {
		return SnapshotPage{}, err
	}
	if pg.Next == "" {
		sh.unpin(p)
	}
	return pg, nil
}

// maxShardPins bounds the pins one shard keeps; taking one more evicts the
// oldest.
const maxShardPins = 4

// snapPin is one immutable cut of a shard, pinned at the shard's version seq
// under the engine's feed epoch, that every page of a transfer is cut from.
type snapPin struct {
	seq   uint64
	ids   []string    // every consumer id of the shard, ascending
	recs  []*consumer // recs[i] is ids[i]'s record
	sells []SellCount // ascending by product
}

// pinFor returns the pin a page request is cut from: the kept pin at seq
// when cont asks to continue one, else the pin at the shard's current
// version, kept or taken now — a dropped pin at the current version was
// this very cut.
func (sh *shard) pinFor(cont bool, seq uint64) *snapPin {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	sh.pinMu.Lock()
	defer sh.pinMu.Unlock()
	gen := sh.gen.Load()
	i := slices.IndexFunc(sh.pins, func(p *snapPin) bool { return p.seq == seq })
	if !cont || i < 0 {
		i = slices.IndexFunc(sh.pins, func(p *snapPin) bool { return p.seq == gen })
	}
	if i >= 0 {
		return sh.pins[i]
	}
	p := &snapPin{seq: gen, ids: slices.Sorted(maps.Keys(sh.consumers)), sells: make([]SellCount, 0, len(sh.sells))}
	p.recs = make([]*consumer, len(p.ids))
	for i, id := range p.ids {
		p.recs[i] = sh.consumers[id]
	}
	for _, pid := range slices.Sorted(maps.Keys(sh.sells)) {
		p.sells = append(p.sells, SellCount{ProductID: pid, Total: sh.sells[pid]})
	}
	if len(sh.pins) == maxShardPins {
		sh.pins = slices.Delete(sh.pins, 0, 1)
	}
	sh.pins = append(sh.pins, p)
	return p
}

// unpin drops p, whose last page has been served, if the shard still keeps
// it.
func (sh *shard) unpin(p *snapPin) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	sh.pinMu.Lock()
	defer sh.pinMu.Unlock()
	sh.pins = slices.DeleteFunc(sh.pins, func(q *snapPin) bool { return q == p })
}

// cut fills pg with the entries of p from (section, startKey) on, closing
// it with a continuation token at the first entry past maxBytes. It takes
// no lock: nothing in a pin is written after pinFor returns it.
func (p *snapPin) cut(pg *SnapshotPage, section, startKey string, maxBytes int) error {
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
		for i := sort.SearchStrings(p.ids, startKey); i < len(p.ids); i++ {
			prof := p.recs[i].prof
			if prof == nil {
				continue
			}
			// Marshal lazily: once the page closes, the remaining profiles
			// (potentially the whole tail of a large shard) are never
			// encoded on this request.
			enc, err := prof.Marshal()
			if err != nil {
				return fmt.Errorf("recommend: encoding profile %s for snapshot page: %w", p.ids[i], err)
			}
			if !fits(profileEntryCost(len(enc)), pageSecProfiles, p.ids[i]) {
				return nil
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
		for i := sort.SearchStrings(p.ids, user); i < len(p.ids); i++ {
			id := p.ids[i]
			for _, b := range p.recs[i].bought {
				if id == user && b.product < product {
					continue
				}
				pp := PurchasePair{UserID: id, ProductID: b.product, AtEpochMS: b.at}
				if !fits(purchaseEntryCost(pp), pageSecPurchases, purchaseKey(pp)) {
					return nil
				}
				pg.Purchases = append(pg.Purchases, pp)
			}
		}
		startKey = ""
	}

	i, _ := slices.BinarySearchFunc(p.sells, startKey, func(sc SellCount, key string) int { return strings.Compare(sc.ProductID, key) })
	for _, sc := range p.sells[i:] {
		if !fits(sellEntryCost(sc.ProductID), pageSecSells, sc.ProductID) {
			return nil
		}
		pg.Sells = append(pg.Sells, sc)
	}
	return nil // Next stays empty: the snapshot is complete
}

// purchaseKey is the stable sort key of one purchase pair; NUL sorts before
// every printable byte, so a consumer's pairs group contiguously.
func purchaseKey(p PurchasePair) string { return p.UserID + "\x00" + p.ProductID }

// add appends pg to d, the shard image a paged transfer or restart recovery
// assembles, as the page arrives: a bad page fails before anything is
// installed, and d is then discarded. It refuses a consumer filed under
// another shard, a sell total below one (no purchase writes it, and it
// would cancel other shards' sales in the served sum), and any entry that
// does not strictly follow the one before it in its section's key order,
// the order every page is cut in and every journal bucket is scanned in.
func (d *ShardData) add(shard, shards int, pg SnapshotPage) error {
	profs, err := decodeProfiles(pg.Profiles, shard, shards)
	if err != nil {
		return err
	}
	for _, pp := range pg.Purchases {
		if shardOf(pp.UserID, shards) != shard {
			return fmt.Errorf("%w: purchase by %s in shard %d", ErrShardMismatch, pp.UserID, shard)
		}
	}
	for _, sc := range pg.Sells {
		if sc.Total < 1 {
			return fmt.Errorf("recommend: sell count %d for %q is not positive", sc.Total, sc.ProductID)
		}
	}
	var profsOK, purchOK, sellsOK bool
	d.Profiles, profsOK = appendAscending(d.Profiles, profs, func(a, b *profile.Profile) int { return strings.Compare(a.UserID, b.UserID) })
	d.Purchases, purchOK = appendAscending(d.Purchases, pg.Purchases, func(a, b PurchasePair) int {
		return cmp.Or(strings.Compare(a.UserID, b.UserID), strings.Compare(a.ProductID, b.ProductID))
	})
	d.Sells, sellsOK = appendAscending(d.Sells, pg.Sells, func(a, b SellCount) int { return strings.Compare(a.ProductID, b.ProductID) })
	d.Encoded = append(d.Encoded, pg.Profiles...)
	if !profsOK || !purchOK || !sellsOK {
		return errOutOfOrder
	}
	return nil
}

// errOutOfOrder refuses a shard image entry that repeats or precedes the one
// before it.
var errOutOfOrder = errors.New("recommend: snapshot entry repeats or precedes the one before it")

// appendAscending appends src to dst if each entry of src strictly follows
// the one before it, dst's last included, under compare; otherwise it
// reports false and leaves dst as it was.
func appendAscending[T any](dst, src []T, compare func(a, b T) int) ([]T, bool) {
	if len(dst) > 0 && len(src) > 0 && compare(dst[len(dst)-1], src[0]) >= 0 {
		return dst, false
	}
	for i := 1; i < len(src); i++ {
		if compare(src[i-1], src[i]) >= 0 {
			return dst, false
		}
	}
	return append(dst, src...), true
}
