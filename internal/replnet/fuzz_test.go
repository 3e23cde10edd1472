package replnet

import (
	"reflect"
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
	table := recommend.NewOwnershipTable(recommend.StaticOwnership(4, 2))
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
	return e, Handler(e, 0, 2, WithOwnership(table))
}

// FuzzHandlerFrames feeds arbitrary journal frames to a handler built
// WithOwnership. Whatever arrives, the handler must not panic, and a frame
// it refuses — undecodable, unfenced, or for a shard it does not serve —
// must leave every shard's feed head where it was: a refused write is one
// that did not happen.
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
