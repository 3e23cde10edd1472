package replnet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"agentrec/internal/atp"
	"agentrec/internal/recommend"
)

// fuzzServer is server 0 of 2 at ownership epoch 2, owning the even shards
// of a four-shard engine seeded with a few consumers on each of them.
func fuzzServer(t testing.TB) (*recommend.Engine, atp.JournalHandler) {
	cat := catalogWithP1(t)
	e, err := recommend.Open(cat, recommend.WithJournalFeed(0), recommend.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	h := Handler(e, 0, 2)
	table := e.Ownership()
	next := table.Current()
	next.Epoch = 2
	table.Advance(next)
	for _, u := range ownedUsers(e, 0, 2, 6) {
		if err := e.SetProfile(testProfile(u)); err != nil {
			t.Fatal(err)
		}
		if err := e.RecordPurchase(u, "p1"); err != nil {
			t.Fatal(err)
		}
	}
	return e, h
}

// FuzzHandlerFrames feeds arbitrary journal frames to a handler fencing
// with its engine's table at epoch 2. Whatever arrives, the handler must
// not panic, and a frame it refuses — undecodable, unfenced, or for a shard
// it does not serve — must leave every shard's feed head where it was: a
// refused write is one that did not happen.
func FuzzHandlerFrames(f *testing.F) {
	// A valid write built by today's code, beside the committed corpus in
	// testdata/fuzz (a valid tail, set-profiles at the right and a stale
	// epoch, negative and out-of-range shards, truncated JSON, an unknown
	// kind), so a valid frame survives a change of the profile encoding.
	e, _ := fuzzServer(f)
	var profs [][]byte
	for _, u := range ownedUsers(e, 0, 2, 2) {
		data, err := testProfile(u).Marshal()
		if err != nil {
			f.Fatal(err)
		}
		profs = append(profs, data)
	}
	f.Add(kindSetProfiles, mustJSON(f, setProfilesRequest{Profiles: profs, OwnerEpoch: 2}))

	f.Fuzz(func(t *testing.T, kind string, data []byte) {
		e, h := fuzzServer(t)
		before := e.FeedHeads()
		if _, err := h(kind, data); err != nil {
			if after := e.FeedHeads(); !reflect.DeepEqual(after, before) {
				t.Fatalf("refused %s frame moved the feed: heads %v -> %v (%v)", kind, before, after, err)
			}
		}
	})
}

// tailSizes encodes profile payload sizes as FuzzTailBounded reads them:
// two little-endian bytes per record.
func tailSizes(sizes ...int) []byte {
	out := make([]byte, 0, 2*len(sizes))
	for _, n := range sizes {
		out = binary.LittleEndian.AppendUint16(out, uint16(n))
	}
	return out
}

// FuzzTailBounded drives the owner's tail trimming with arbitrary record
// counts and profile payload sizes (0–32 KiB) under a reply budget of 1–64
// KiB. A reply must fit the budget or be the paged marker; a trimmed reply
// carries a prefix of the served records with its cursor on the last one
// kept; the marker carries no records and pins the cursor at the feed head;
// a reply with no records passes unchanged.
func FuzzTailBounded(f *testing.F) {
	f.Add(uint16(0), tailSizes())                                     // empty
	f.Add(uint16(3<<10), tailSizes(100))                              // one record under budget
	f.Add(uint16(0), tailSizes(20000))                                // one oversized record
	f.Add(uint16(1<<10), tailSizes(slices.Repeat([]int{200}, 40)...)) // many small records
	f.Add(uint16(3<<10), tailSizes(100, 30000))                       // an oversized record behind a small one

	f.Fuzz(func(t *testing.T, budgetSeed uint16, sizes []byte) {
		budget := 1<<10 + int(budgetSeed)%(63<<10+1)
		defer SetMaxTailBytes(budget)()

		const cursor = 100 // the follower's cursor
		in := recommend.TailResult{Shards: 16, Epoch: 7, Seq: cursor}
		for i := 0; i+1 < len(sizes) && i < 128; i += 2 {
			size := int(binary.LittleEndian.Uint16(sizes[i:])) % (32<<10 + 1)
			in.Seq++
			in.Records = append(in.Records, recommend.JournalRecord{
				Shard: 3, Seq: in.Seq, Op: recommend.OpProfiles,
				Profiles: [][]byte{bytes.Repeat([]byte{'p'}, size)},
			})
		}
		in.Head = in.Seq + 2 // the feed moved on while the reply was built

		out, err := marshalTailBounded(3, in)
		if err != nil {
			t.Fatal(err)
		}
		var got recommend.TailResult
		if err := json.Unmarshal(out, &got); err != nil {
			t.Fatalf("reply does not decode: %v", err)
		}
		if got.Head != in.Head || got.Epoch != in.Epoch || got.Shards != in.Shards {
			t.Fatalf("reply changed head/epoch/shards: head %d epoch %d shards %d -> %d %d %d",
				in.Head, in.Epoch, in.Shards, got.Head, got.Epoch, got.Shards)
		}
		if len(in.Records) == 0 {
			if want, _ := json.Marshal(in); !bytes.Equal(out, want) {
				t.Fatalf("reply with no records changed: %s -> %s", want, out)
			}
			return
		}
		if got.Paged {
			if len(got.Records) != 0 || got.Seq != got.Head {
				t.Fatalf("paged marker carries %d records at seq %d, head %d", len(got.Records), got.Seq, got.Head)
			}
			return
		}
		if len(out) > budget {
			t.Fatalf("reply of %d bytes over the %d-byte budget", len(out), budget)
		}
		n := len(got.Records)
		if n == 0 || n > len(in.Records) || !reflect.DeepEqual(got.Records, in.Records[:n]) {
			t.Fatalf("reply kept %d records, not a non-empty prefix of the %d served", n, len(in.Records))
		}
		if got.Seq != got.Records[n-1].Seq {
			t.Fatalf("reply seq %d, last kept record seq %d", got.Seq, got.Records[n-1].Seq)
		}
	})
}
