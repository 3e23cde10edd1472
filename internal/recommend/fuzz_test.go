package recommend

import (
	"encoding/json"
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
		if err := e.RecordPurchaseAt(id, "p1", datedNow); err != nil {
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
// shard 0: decoded as SnapshotPage JSON, assembled by addPage and installed
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
	// by another shard's consumer, a truncated token), so a valid page
	// survives a change of the profile encoding.
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
			if data.addPage(e, 0, pg) == nil {
				_ = e.applyShardSnapshot(0, data, nil) // refused or not, journal and memory must agree
			}
		}
		journalMatchesMemory(t, e, 0)
		for pid, n := range liveShard(t, e, 0).Sells {
			if n < 1 {
				t.Fatalf("shard 0 attributes %d sales of %q, want at least 1", n, pid)
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
