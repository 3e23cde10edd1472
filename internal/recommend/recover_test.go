package recommend

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"

	"agentrec/internal/catalog"
	"agentrec/internal/kvstore"
	"agentrec/internal/profile"
)

// TestReopenUnderOtherShardCountRefused: a journal files each consumer
// under the shard count it was written with. Reopened under fewer shards
// (buckets the engine never loads) or more (consumers filed where lookups
// do not reach), Open refuses it with ErrShardMismatch; under its own
// count it opens with every consumer.
func TestReopenUnderOtherShardCountRefused(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(catalog.New(), WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 200)
	for i := range ids {
		ids[i] = fmt.Sprintf("user-%04d", i)
		if err := e.SetProfile(profile.NewProfile(ids[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{4, 5, 2 * DefaultShards} {
		e, err := Open(catalog.New(), WithShards(n), WithPersistence(dir))
		if err == nil {
			found := 0
			for _, id := range ids {
				if _, err := e.Profile(id); err == nil {
					found++
				}
			}
			e.Close()
			t.Fatalf("a %d-shard journal opened under %d shards: %d users listed, %d of 200 found",
				DefaultShards, n, len(e.Users()), found)
		}
		if !errors.Is(err, ErrShardMismatch) {
			t.Fatalf("under %d shards: %v, want ErrShardMismatch", n, err)
		}
	}
	e, err = Open(catalog.New(), WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, id := range ids {
		if _, err := e.Profile(id); err != nil {
			t.Fatalf("under its own count: %v", err)
		}
	}
}

// writeJournal writes ops to a fresh community journal under a new dir,
// one batch each, skipping any the store refuses, and returns the dir.
func writeJournal(t testing.TB, ops []kvstore.Op) string {
	dir := t.TempDir()
	store, err := kvstore.Open(filepath.Join(dir, CommunityWAL))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		store.Apply([]kvstore.Op{op})
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestJournalPastTheShardCount: a journal with a bucket of a shard the
// engine lacks — profiles, purchases or sells — is refused, since recovery
// would never load it, and opens under a count that has the shard.
func TestJournalPastTheShardCount(t *testing.T) {
	for _, bucket := range []string{profBucket(3), purchBucket(3), sellBucket(3)} {
		dir := writeJournal(t, []kvstore.Op{{Bucket: bucket, Key: "user-0001\x00p1", Value: []byte("1")}})
		if e, err := Open(catalog.New(), WithShards(3), WithPersistence(dir)); !errors.Is(err, ErrShardMismatch) {
			if err == nil {
				e.Close()
			}
			t.Fatalf("%s under 3 shards: %v, want ErrShardMismatch", bucket, err)
		}
	}
	dir := writeJournal(t, []kvstore.Op{{Bucket: sellBucket(3), Key: "p1", Value: []byte("2")}})
	e, err := Open(catalog.New(), WithShards(4), WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got := e.shards[3].sells["p1"]; got != 2 {
		t.Fatalf("shard 3 sells %d of p1, want 2", got)
	}
}

// Fuzzed journal records: kind (profile, purchase or sell bucket), the
// shard number of the bucket, then a key and a value, each one length
// byte and its bytes. A truncated record ends the journal.
var recoverBuckets = []string{bucketProfiles, bucketPurchases, bucketSells}

func recoverRecord(kind, shard int, key string, value []byte) []byte {
	out := []byte{byte(kind), byte(shard), byte(len(key))}
	out = append(out, key...)
	out = append(out, byte(len(value)))
	return append(out, value...)
}

func recoverOps(data []byte) []kvstore.Op {
	var ops []kvstore.Op
	for len(data) >= 3 {
		bucket := recoverBuckets[int(data[0])%len(recoverBuckets)] + strconv.Itoa(int(data[1]))
		klen := int(data[2])
		data = data[3:]
		if len(data) < klen+1 {
			break
		}
		key := string(data[:klen])
		vlen := int(data[klen])
		data = data[klen+1:]
		if len(data) < vlen {
			break
		}
		ops = append(ops, kvstore.Op{Bucket: bucket, Key: key, Value: data[:vlen]})
		data = data[vlen:]
	}
	return ops
}

// FuzzRecoverShard opens an engine under a fuzzed shard count over a
// journal of arbitrary (CRC-valid, as the store writes them) records in the
// profile, purchase and sell buckets. Open may refuse the journal; if it
// opens, every consumer Users lists is found by Profile and by a Snapshot —
// recovery never files a consumer where lookups do not reach.
func FuzzRecoverShard(f *testing.F) {
	const seedShards = 2
	user := "user-0001"
	home := shardOf(user, seedShards)
	enc, err := profile.NewProfile(user).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	join := func(recs ...[]byte) (out []byte) {
		for _, r := range recs {
			out = append(out, r...)
		}
		return out
	}
	valid := join(
		recoverRecord(0, home, user, enc),
		recoverRecord(1, home, user+"\x00p1", []byte{0}),
		recoverRecord(2, home, "p1", []byte("1")),
	)
	f.Add(uint8(seedShards-1), valid)                                       // a valid one-consumer journal
	f.Add(uint8(seedShards-1), recoverRecord(0, 1-home, user, enc))         // a profile in another shard's bucket
	f.Add(uint8(seedShards-1), join(valid, recoverRecord(0, 7, user, enc))) // a bucket for a shard past the count
	f.Add(uint8(seedShards-1), recoverRecord(0, home, user,
		[]byte(`{"user_id":"`+user+`","categories":{"c":null}}`))) // a profile with a null category
	f.Add(uint8(seedShards-1), recoverRecord(1, home, user+"p1", []byte{0})) // a purchase key with no NUL

	f.Fuzz(func(t *testing.T, shards uint8, data []byte) {
		n := int(shards)%16 + 1
		dir := writeJournal(t, recoverOps(data))
		e, err := Open(catalog.New(), WithShards(n), WithPersistence(dir))
		if err != nil {
			return
		}
		defer e.Close()
		snap := e.Snapshot()
		for _, id := range e.Users() {
			if _, err := e.Profile(id); err != nil {
				t.Fatalf("listed %q not found: %v", id, err)
			}
			if snap.Profile(id) == nil {
				t.Fatalf("listed %q not in a snapshot", id)
			}
		}
	})
}

// TestNonFiniteWeightsRefused: a caller-built profile with a NaN or
// infinite term weight is refused with profile.ErrBadEvidence on a
// memory-only and a durable engine alike, and leaves the feed and memory as
// they were: the durable engine could not journal it as JSON, and the
// memory-only one would serve NaN similarity from it. A negative weight,
// which a journal may already hold, is still installed, and reopens.
func TestNonFiniteWeightsRefused(t *testing.T) {
	withWeight := func(user string, w float64, sub bool) *profile.Profile {
		p := profile.NewProfile(user)
		cat := &profile.Category{Name: "laptop", Terms: map[string]float64{"ssd": 1}}
		if sub {
			cat.Subs = map[string]*profile.SubCategory{"gaming": {Name: "gaming", Terms: map[string]float64{"gpu": w}}}
		} else {
			cat.Terms["fan"] = w
		}
		p.Categories["laptop"] = cat
		return p
	}
	var refused []*profile.Profile
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		refused = append(refused, withWeight("alice", w, false), withWeight("alice", w, true))
	}
	for _, tc := range []struct {
		name string
		opts func(dir string) []Option
	}{
		{"memory", func(string) []Option { return nil }},
		{"durable", func(dir string) []Option { return []Option{WithJournalFeed(0), WithPersistence(dir)} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e, err := Open(catalog.New(), tc.opts(dir)...)
			if err != nil {
				t.Fatal(err)
			}
			heads := e.FeedHeads()
			for _, p := range refused {
				if err := e.SetProfile(p); !errors.Is(err, profile.ErrBadEvidence) {
					t.Errorf("SetProfile(%v) = %v, want ErrBadEvidence", p.Categories["laptop"], err)
				}
				if err := e.SetProfiles([]*profile.Profile{withWeight("bob", 1, false), p}); !errors.Is(err, profile.ErrBadEvidence) {
					t.Errorf("SetProfiles with %v = %v, want ErrBadEvidence", p.Categories["laptop"], err)
				}
			}
			if users := e.Users(); len(users) != 0 {
				t.Errorf("refused writes installed %v", users)
			}
			if got := e.FeedHeads(); !slices.Equal(got, heads) {
				t.Errorf("refused writes moved the feed: %v -> %v", heads, got)
			}
			if err := e.SetProfile(withWeight("carol", -2, true)); err != nil {
				t.Fatalf("a negative weight: %v", err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			e, err = Open(catalog.New(), tc.opts(dir)...)
			if err != nil {
				t.Fatalf("reopening after the refused writes: %v", err)
			}
			defer e.Close()
			want := []string{"carol"}
			if tc.name == "memory" {
				want = nil
			}
			if users := e.Users(); !slices.Equal(users, want) {
				t.Errorf("reopened with %v, want %v", users, want)
			}
		})
	}
}

// TestInvalidUTF8KeysRefused: a write naming a consumer, product or profile
// key that is not valid UTF-8 is refused with ErrBadKey on a memory-only and
// a durable engine alike, and leaves the journal, the feed and memory as
// they were. Profiles are journaled and forwarded as JSON, which would keep
// "f\xff" as "f�": another consumer, in another of 16 shards, so the
// next Open would refuse the journal.
func TestInvalidUTF8KeysRefused(t *testing.T) {
	const bad = "f\xff"
	profileWith := func(user, cat, sub, term string) *profile.Profile {
		p := profile.NewProfile(user)
		if err := p.Observe(profile.Evidence{
			Category: cat, SubCategory: sub,
			Terms: map[string]float64{term: 1}, SubTerms: map[string]float64{term: 1},
			Behaviour: profile.BehaviourBuy,
		}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	refused := []*profile.Profile{
		profileWith(bad, "laptop", "gaming", "ssd"),
		profileWith("alice", bad, "gaming", "ssd"),
		profileWith("alice", "laptop", bad, "ssd"),
		profileWith("alice", "laptop", "gaming", bad),
	}
	for _, tc := range []struct {
		name string
		opts func(dir string) []Option
	}{
		{"memory", func(string) []Option { return []Option{WithJournalFeed(0)} }},
		{"durable", func(dir string) []Option { return []Option{WithJournalFeed(0), WithPersistence(dir)} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e, err := Open(catalog.New(), tc.opts(dir)...)
			if err != nil {
				t.Fatal(err)
			}
			heads := e.FeedHeads()
			for _, p := range refused {
				if err := e.SetProfile(p); !errors.Is(err, ErrBadKey) {
					t.Errorf("SetProfile(%q) = %v, want ErrBadKey", p.UserID, err)
				}
				if err := e.SetProfiles([]*profile.Profile{profileWith("bob", "laptop", "", "ssd"), p}); !errors.Is(err, ErrBadKey) {
					t.Errorf("SetProfiles with %q = %v, want ErrBadKey", p.UserID, err)
				}
			}
			for _, ids := range [][2]string{{bad, "p1"}, {"alice", bad}} {
				if err := e.RecordPurchase(ids[0], ids[1]); !errors.Is(err, ErrBadKey) {
					t.Errorf("RecordPurchase(%q, %q) = %v, want ErrBadKey", ids[0], ids[1], err)
				}
			}
			if users := e.Users(); len(users) != 0 {
				t.Errorf("refused writes installed %v", users)
			}
			if got := e.FeedHeads(); !slices.Equal(got, heads) {
				t.Errorf("refused writes moved the feed: %v -> %v", heads, got)
			}
			if got := e.topSellers("", -1, "topseller"); len(got) != 0 {
				t.Errorf("refused purchases counted: %v", got)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			e, err = Open(catalog.New(), tc.opts(dir)...)
			if err != nil {
				t.Fatalf("reopening after the refused writes: %v", err)
			}
			defer e.Close()
			if users := e.Users(); len(users) != 0 {
				t.Errorf("the journal recovered %v", users)
			}
		})
	}
}

// TestUnkeyableIDsRefused: a write naming an empty consumer or product id,
// or one holding a NUL, is refused with ErrBadKey by a memory-only owner as
// by a durable one. A durable follower's journal cannot key such an id:
// acked by the owner, it failed the follower's every Sync, and the owner's
// later writes never reached it. Refused, they leave the follower applying
// the owner's next write and converging.
func TestUnkeyableIDsRefused(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"memory", nil},
		{"durable", []Option{WithPersistence(t.TempDir())}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cat := catalog.New()
			owner, err := Open(cat, append([]Option{WithJournalFeed(0), WithShards(1)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer owner.Close()
			follower, err := Open(cat, WithJournalFeed(0), WithShards(1), WithPersistence(t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
			defer follower.Close()
			r, err := NewReplicator(follower, 1, []Peer{LocalPeer{Engine: owner}, nil})
			if err != nil {
				t.Fatal(err)
			}
			sync := func() {
				t.Helper()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := r.Sync(ctx); err != nil {
					t.Fatalf("follower Sync: %v", err)
				}
			}
			buyer := func(id string) *profile.Profile {
				p := profile.NewProfile(id)
				if err := p.Observe(profile.Evidence{Category: "laptop", Terms: map[string]float64{"ssd": 1}, Behaviour: profile.BehaviourBuy}); err != nil {
					t.Fatal(err)
				}
				return p
			}
			if err := owner.SetProfile(buyer("alice")); err != nil {
				t.Fatal(err)
			}
			sync()
			for _, bad := range []string{"", "a\x00b"} {
				if err := owner.SetProfile(buyer(bad)); !errors.Is(err, ErrBadKey) {
					t.Errorf("SetProfile(%q) = %v, want ErrBadKey", bad, err)
				}
				if err := owner.RecordPurchase(bad, "p0"); !errors.Is(err, ErrBadKey) {
					t.Errorf("RecordPurchase(%q, p0) = %v, want ErrBadKey", bad, err)
				}
				if err := owner.RecordPurchase("alice", bad); !errors.Is(err, ErrBadKey) {
					t.Errorf("RecordPurchase(alice, %q) = %v, want ErrBadKey", bad, err)
				}
			}
			if err := owner.RecordPurchase("alice", "p1"); err != nil {
				t.Fatal(err)
			}
			sync()
			if got := follower.Snapshot().Purchases("alice"); len(got) != 1 || !got["p1"] {
				t.Fatalf("follower holds alice's purchases %v, want [p1]", got)
			}
			communityEqual(t, owner, follower)
		})
	}
}

// TestEmptiedBucketsOpen: buckets whose every key was deleted — by a
// wholesale replace, or in a journal written under more shards — hold no
// record recovery would miss, so Open accepts them.
func TestEmptiedBucketsOpen(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(catalog.New(), WithShards(4), WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("user-%04d", i)
		if err := e.SetProfile(profile.NewProfile(id)); err != nil {
			t.Fatal(err)
		}
		if err := e.RecordPurchase(id, "p1"); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.applyShardSnapshot(2, ShardData{}, (*OwnershipTable).admitOwner); err != nil {
		t.Fatal(err)
	}
	want := e.Users()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, err = Open(catalog.New(), WithShards(4), WithPersistence(dir))
	if err != nil {
		t.Fatalf("reopening after a shard was emptied: %v", err)
	}
	if got := e.Users(); !slices.Equal(got, want) || len(e.shards[2].consumers) != 0 {
		t.Fatalf("reopened with %d users, %d in the emptied shard; want %d, 0", len(got), len(e.shards[2].consumers), len(want))
	}
	e.Close()

	dir = writeJournal(t, []kvstore.Op{
		{Bucket: profBucket(7), Key: "user-0001", Value: []byte("{}")},
		{Bucket: profBucket(7), Key: "user-0001", Delete: true},
	})
	e, err = Open(catalog.New(), WithShards(4), WithPersistence(dir))
	if err != nil {
		t.Fatalf("a bucket past the count, emptied: %v", err)
	}
	e.Close()
}
