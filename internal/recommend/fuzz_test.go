package recommend

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"agentrec/internal/catalog"
	"agentrec/internal/profile"
)

// shardIDs returns the first n ids user-0000, user-0001, ... that hash to
// shard on e.
func shardIDs(e *Engine, shard, n int) []string {
	var ids []string
	for i := 0; len(ids) < n; i++ {
		if id := fmt.Sprintf("user-%04d", i); e.ShardOf(id) == shard {
			ids = append(ids, id)
		}
	}
	return ids
}

// pageFollower is a persisted two-shard engine whose shard 0 already holds
// three consumers, their dated purchases and the shard's sell counts: the
// follower a snapshot page of shard 0 lands on.
func pageFollower(t testing.TB) *Engine {
	e, err := Open(catalog.New(), WithJournalFeed(0), WithShards(2), WithPersistence(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	for _, id := range shardIDs(e, 0, 3) {
		if err := e.SetProfile(profile.NewProfile(id)); err != nil {
			t.Fatal(err)
		}
		if err := e.Observe(id, nil, []PurchasePair{PurchaseAt(id, "p1", datedNow)}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// journalMatchesMemory fails t unless shard's journal, which is what a
// restart recovers, holds exactly what the engine serves from memory.
func journalMatchesMemory(t *testing.T, e *Engine, shard int) {
	t.Helper()
	durable, err := e.persist.LoadShard(shard)
	if err != nil {
		t.Fatal(err)
	}
	snapshotsEqual(t, durable, liveShard(t, e, shard))
}

// FuzzSnapshotPage feeds a follower arbitrary bytes as a snapshot page of
// shard 0: decoded as SnapshotPage JSON, assembled by ShardData.add and installed
// by applyShardSnapshot over the state the follower already holds. Whether
// the page is accepted or refused, nothing panics, the shard's journal
// equals its memory, and every sell count the shard attributes is at least
// one (a purchase never writes less, and the served total is their sum).
// The token is handed to the owner side: SnapshotPage at the live pin never
// panics and refuses a token it cannot decode.
func FuzzSnapshotPage(f *testing.F) {
	// A valid page built by today's code, beside the committed corpus in
	// testdata/fuzz (a valid page, a purchase whose product id holds a NUL, a
	// sell count with an empty product id, a negative sell count, a purchase
	// by another shard's consumer, a truncated token, and profiles, purchases
	// and sell counts out of order or repeated), so a valid page survives a
	// change of the profile encoding.
	e := pageFollower(f)
	enc, err := profile.NewProfile(shardIDs(e, 0, 4)[3]).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	page, err := json.Marshal(SnapshotPage{Shards: 2, Profiles: [][]byte{enc}, Sells: []SellCount{{ProductID: "p1", Total: 1}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(page, encodePageToken(pageSecPurchases, "user-0001"))

	f.Fuzz(func(t *testing.T, page []byte, token string) {
		e := pageFollower(t)
		var pg SnapshotPage
		if json.Unmarshal(page, &pg) == nil {
			var data ShardData
			if data.add(0, e.nshards, pg) == nil {
				_ = e.applyShardSnapshot(0, data, (*OwnershipTable).admitOwner) // refused or not, journal and memory must agree
			}
		}
		journalMatchesMemory(t, e, 0)
		for _, sc := range liveShard(t, e, 0).Sells {
			if sc.Total < 1 {
				t.Fatalf("shard 0 attributes %d sales of %q, want at least 1", sc.Total, sc.ProductID)
			}
		}

		tr, err := e.JournalTail(0, 0, 0) // a stale cursor is answered with the live pin
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.SnapshotPage(0, tr.Epoch, tr.Seq, token, 256)
		if _, _, bad := decodePageToken(token); bad != nil && err == nil {
			t.Fatalf("malformed token %q accepted", token)
		}
	})
}

// The pin tailReplyPeer bootstraps a follower's cursor to.
const (
	tailEpoch uint64 = 0x5eed
	tailSeq   uint64 = 3
)

// tailReplyPeer is the owner of shard 0 as a follower sees it. Until
// replying is set it answers a tail with the paged marker pinned at
// (tailEpoch, tailSeq) and serves boot as the one page of that cut; from
// then on it answers every tail with reply decoded as a TailResult, and
// refuses every page.
type tailReplyPeer struct {
	boot     SnapshotPage
	replying bool
	reply    []byte
}

func (p *tailReplyPeer) JournalTail(_ context.Context, _ int, _, _ uint64) (TailResult, error) {
	if !p.replying {
		return TailResult{Shards: 2, Epoch: tailEpoch, Seq: tailSeq, Head: tailSeq, Paged: true}, nil
	}
	var tr TailResult
	err := json.Unmarshal(p.reply, &tr)
	return tr, err
}

func (p *tailReplyPeer) SnapshotPage(_ context.Context, _ int, _, _ uint64, _ string) (SnapshotPage, error) {
	if p.replying {
		return SnapshotPage{}, errors.New("no pages once replying")
	}
	return p.boot, nil
}

// FuzzTailReply feeds a persisted follower arbitrary bytes as the owner's
// answer to its tail request for shard 0. With booted the follower first
// pages the state it already holds in at (tailEpoch, tailSeq), so the reply
// meets a live cursor; without it the reply meets the zero cursor of a
// follower that has never pulled. Accepted or refused, the shard's journal
// equals its memory and the follower's feed head moves by exactly the
// records it reports applied, and a record with neither a profile nor a
// purchase is never accepted. A reply no owner could send (undecodable, a
// zero or foreign epoch, a seq gap anywhere, a shard-count mismatch, or a
// paged marker whose pages are refused) changes nothing.
func FuzzTailReply(f *testing.F) {
	// A valid two-record reply encoded by the current profile format, beside
	// the committed corpus in testdata/fuzz: the zero-epoch reply, a foreign
	// epoch and garbage profile bytes; in the feed's one record shape a
	// purchase by another shard's consumer (foreign-purchase), a seq gap
	// (seq-gap-purchases) and a valid two-record reply
	// (valid-two-purchase-records); and, in the retired encoding whose
	// "purchase" records carried `op`, `user` and `product`, a record for
	// another shard's consumer, a seq gap, an unknown op and a two-record
	// reply, whose purchase records now decode as records with neither a
	// profile nor a purchase and are refused.
	e := pageFollower(f)
	user := shardIDs(e, 0, 4)[3]
	enc, err := profile.NewProfile(user).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(TailResult{Shards: 2, Epoch: tailEpoch, Seq: tailSeq + 2, Head: tailSeq + 2, Records: []JournalRecord{
		{Seq: tailSeq + 1, Profiles: [][]byte{enc}},
		{Seq: tailSeq + 2, Purchases: []PurchasePair{{UserID: user, ProductID: "p2"}}},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(true, valid)
	// A record carrying the write's purchases beside its profile.
	combined, err := json.Marshal(TailResult{Shards: 2, Epoch: tailEpoch, Seq: tailSeq + 1, Head: tailSeq + 1, Records: []JournalRecord{
		{Seq: tailSeq + 1, Profiles: [][]byte{enc}, Purchases: []PurchasePair{
			{UserID: user, ProductID: "p1", AtEpochMS: 1_700_000_000_000}, {UserID: user, ProductID: "p2"},
		}},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(true, combined)

	f.Fuzz(func(t *testing.T, booted bool, reply []byte) {
		ctx := context.Background()
		e := pageFollower(t)
		marker, err := e.JournalTail(0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		boot, err := e.SnapshotPage(0, marker.Epoch, marker.Seq, "", 0)
		if err != nil || boot.Next != "" {
			t.Fatalf("follower's own shard 0 as one page: %+v, %v", boot, err)
		}
		boot.Epoch, boot.Seq = tailEpoch, tailSeq
		peer := &tailReplyPeer{boot: boot}
		r, err := NewReplicator(e, 1, []Peer{peer, nil})
		if err != nil {
			t.Fatal(err)
		}
		var cur replCursor
		if booted {
			if err := r.Sync(ctx); err != nil {
				t.Fatal(err)
			}
			cur = replCursor{epoch: tailEpoch, seq: tailSeq}
		}
		headBefore, recordsBefore := e.FeedHeads()[0], r.Stats().Shards[0].Records
		durable, err := e.persist.LoadShard(0)
		if err != nil {
			t.Fatal(err)
		}

		peer.replying, peer.reply = true, reply
		syncErr := r.Sync(ctx)

		for s := 0; s < 2; s++ {
			journalMatchesMemory(t, e, s)
		}
		head, records := e.FeedHeads()[0], r.Stats().Shards[0].Records
		if head-headBefore != records-recordsBefore {
			t.Fatalf("feed head moved %d -> %d while %d records were applied", headBefore, head, records-recordsBefore)
		}

		var tr TailResult
		impossible := json.Unmarshal(reply, &tr) != nil || tr.Shards != 2 || tr.Paged ||
			cur.epoch == 0 || tr.Epoch != cur.epoch
		for _, rec := range tr.Records {
			if syncErr == nil && len(rec.Profiles) == 0 && len(rec.Purchases) == 0 {
				t.Fatalf("Sync accepted a record with neither a profile nor a purchase: %s", reply)
			}
		}
		for i, rec := range tr.Records {
			impossible = impossible || rec.Seq != cur.seq+uint64(i)+1
		}
		if !impossible {
			return
		}
		if syncErr == nil {
			t.Fatalf("Sync accepted a reply no owner could send: %s", reply)
		}
		if head != headBefore || records != recordsBefore {
			t.Fatalf("refused reply moved the feed head %d -> %d and records %d -> %d", headBefore, head, recordsBefore, records)
		}
		after, err := e.persist.LoadShard(0)
		if err != nil {
			t.Fatal(err)
		}
		snapshotsEqual(t, after, durable)
	})
}
