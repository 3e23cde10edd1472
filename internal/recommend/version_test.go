package recommend

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"agentrec/internal/ops"
	"agentrec/internal/profile"
)

// bulkProfiles returns copies of profiles, renamed bulk-00000, bulk-00001,
// ... and taken round-robin, until their encodings pass minBytes: an
// install that many batches long.
func bulkProfiles(t *testing.T, profiles []*profile.Profile, minBytes int) []*profile.Profile {
	t.Helper()
	var bulk []*profile.Profile
	for size := 0; size <= minBytes; {
		p := profiles[len(bulk)%len(profiles)].Clone()
		p.UserID = fmt.Sprintf("bulk-%05d", len(bulk))
		enc, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		bulk, size = append(bulk, p), size+len(enc)
	}
	return bulk
}

// TestShardVersionIsFeedHead: a shard has one version. After each step — a
// one-profile install, a three-batch bulk install, a purchase, an Observe,
// a paged snapshot install on a follower, a reopen — a shard's feed head
// equals its view's gen and the seq of its newest retained record, and
// after each write the seq of the journal event the write published.
func TestShardVersionIsFeedHead(t *testing.T) {
	u, profiles := soakUniverse(t)
	dir := t.TempDir()
	bus := ops.NewBus()
	sub := bus.Subscribe(ops.SubscribeOptions{Kinds: []ops.Kind{ops.KindJournal}})
	owner, err := Open(u.Catalog, WithShards(1), WithJournalFeed(0), WithPersistence(dir), WithEventBus(bus, 0))
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, e *Engine, want uint64, wrote bool) {
		t.Helper()
		head := e.FeedHeads()[0]
		if head != want {
			t.Fatalf("%s: feed head %d, want %d", step, head, want)
		}
		if gen := e.Snapshot().views[0].gen; gen != head {
			t.Fatalf("%s: view gen %d, feed head %d", step, gen, head)
		}
		sh := e.shards[0]
		sh.mu.RLock()
		if n := len(sh.ring); n > 0 {
			if last := sh.ring[(sh.start+n-1)%n].Seq; last != head {
				t.Fatalf("%s: newest retained record is seq %d, feed head %d", step, last, head)
			}
		}
		sh.mu.RUnlock()
		if !wrote {
			return
		}
		evs := drain(t, sub)
		if len(evs) == 0 {
			t.Fatalf("%s: no journal event published", step)
		}
		if seq := evs[len(evs)-1].Journal.Seq; seq != head {
			t.Fatalf("%s: journal event seq %d, feed head %d", step, seq, head)
		}
	}

	if err := owner.SetProfile(profiles[0]); err != nil {
		t.Fatal(err)
	}
	check("one-profile install", owner, 1, true)

	bulk := bulkProfiles(t, profiles, maxBatchBytes*5/2)
	encs, err := encodeProfiles(bulk)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(batchEnds(encs)); n != 3 {
		t.Fatalf("bulk install cuts into %d batches, want 3", n)
	}
	if err := owner.SetProfiles(bulk); err != nil {
		t.Fatal(err)
	}
	check("three-batch bulk install", owner, 4, true)

	if err := owner.RecordPurchase(profiles[0].UserID, "p1"); err != nil {
		t.Fatal(err)
	}
	check("purchase", owner, 5, true)

	if err := owner.Observe(profiles[0].UserID, []profile.Evidence{{Category: "c1", Terms: map[string]float64{"t": 1}}}, nil); err != nil {
		t.Fatal(err)
	}
	check("observe", owner, 6, true)

	follower, err := Open(u.Catalog, WithShards(1), WithJournalFeed(0))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	r, err := NewReplicator(follower, 1, []Peer{LocalPeer{Engine: owner, PageBytes: 1 << 20}, nil})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats().Shards[0]; st.Snapshots != 1 || st.Pages < 2 {
		t.Fatalf("follower catch-up = %+v, want one snapshot over several pages", st)
	}
	check("paged snapshot install on a follower", follower, 1, false)

	if err := owner.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(u.Catalog, WithShards(1), WithJournalFeed(0), WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	check("reopen", reopened, 0, false)
}

// failNthSave is a Persister whose n-th SaveWrite call fails, with
// errInjected, without saving.
type failNthSave struct {
	Persister
	n int
}

func (p *failNthSave) SaveWrite(shard int, profs []*profile.Profile, encs [][]byte, buys []PurchasePair, sells []SellCount) error {
	if p.n--; p.n == 0 {
		return errInjected
	}
	return p.Persister.SaveWrite(shard, profs, encs, buys, sells)
}

// TestBulkInstallCommitsBatchByBatch: when the journal refuses the second
// batch of a two-batch install, the first batch stands whole — served,
// on the feed, published, tailed by a follower and recovered by a reopen —
// and nothing of the second does.
func TestBulkInstallCommitsBatchByBatch(t *testing.T) {
	u, profiles := soakUniverse(t)
	bulk := bulkProfiles(t, profiles, maxBatchBytes*3/2)
	encs, err := encodeProfiles(bulk)
	if err != nil {
		t.Fatal(err)
	}
	ends := batchEnds(encs)
	if len(ends) != 2 {
		t.Fatalf("bulk install cuts into %d batches, want 2", len(ends))
	}
	first := ends[0]

	dir := t.TempDir()
	store, err := openPersister(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	bus := ops.NewBus()
	sub := bus.Subscribe(ops.SubscribeOptions{Kinds: []ops.Kind{ops.KindJournal}})
	owner, err := Open(u.Catalog, WithShards(1), WithJournalFeed(0), WithPersister(&failNthSave{Persister: store, n: 2}), WithEventBus(bus, 0))
	if err != nil {
		t.Fatal(err)
	}
	follower, err := Open(u.Catalog, WithShards(1), WithJournalFeed(0))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	r, err := NewReplicator(follower, 1, []Peer{LocalPeer{Engine: owner}, nil})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Pin the follower's cursor on the empty shard, so what the install
	// commits reaches it as feed records.
	if err := r.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}

	if err := owner.SetProfiles(bulk); !errors.Is(err, errInjected) {
		t.Fatalf("SetProfiles = %v, want the injected failure", err)
	}
	for i, p := range bulk {
		if _, err := owner.Profile(p.UserID); (err == nil) != (i < first) {
			t.Fatalf("Profile(%s), batch %d: %v", p.UserID, min(i/first, 1)+1, err)
		}
	}
	if head := owner.FeedHeads()[0]; head != 1 {
		t.Fatalf("feed head %d after one committed batch, want 1", head)
	}
	evs := drain(t, sub)
	if len(evs) != 1 || evs[0].Journal.Seq != 1 || evs[0].Journal.Records != first {
		t.Fatalf("journal events %+v, want one for the %d profiles of seq 1", evs, first)
	}

	want := make([]string, first)
	for i, p := range bulk[:first] {
		want[i] = p.UserID
	}
	slices.Sort(want)
	if got := owner.Users(); !reflect.DeepEqual(got, want) {
		t.Fatalf("owner serves %d consumers, want the first batch's %d", len(got), len(want))
	}
	if err := r.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats().Shards[0]; st.Records != 1 || st.LagRecords != 0 {
		t.Fatalf("follower = %+v, want the one committed batch as one record", st)
	}
	if got := follower.Users(); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower holds %d consumers, want the first batch's %d", len(got), len(want))
	}

	if err := owner.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(u.Catalog, WithShards(1), WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	communityEqual(t, follower, reopened)
}
