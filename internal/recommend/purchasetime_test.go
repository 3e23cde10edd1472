package recommend

// A purchase's marker in the purchase set is its time, so Trending and
// TiedSales are functions of ordinary shard state. These tests drive dated
// traffic — repeats, older repeats, undated repeats — and hold every way the
// engine copies a shard (journal records, paged catch-up, the WAL, a crash
// image, compaction) to the same answers as one in-memory engine.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"agentrec/internal/catalog"
	"agentrec/internal/kvstore"
	"agentrec/internal/workload"
)

// The window the dated fixtures buy around: buyDated spreads purchases over
// twice the window before datedNow, so about half trend.
var datedNow = time.Date(2026, 6, 12, 12, 0, 0, 0, time.UTC)

const datedWindow = 7 * 24 * time.Hour

// buyDated replays the universe's purchases through w in a fixed order, each
// at its own sub-millisecond-precise time in the two windows before
// datedNow. Some pairs are bought again an hour EARLIER and some again
// undated (both must keep the first time), and some are bought undated first
// and dated after (the date must stick).
func buyDated(t testing.TB, u *workload.Universe, w Writer) {
	t.Helper()
	purchases := u.Purchases()
	users := make([]string, 0, len(purchases))
	for user := range purchases {
		users = append(users, user)
	}
	sort.Strings(users)
	buy := func(user, pid string, at time.Time) {
		if err := w.Observe(user, nil, []PurchasePair{PurchaseAt(user, pid, at)}); err != nil {
			t.Fatal(err)
		}
	}
	k := 0
	for _, user := range users {
		for _, pid := range purchases[user] {
			k++
			at := datedNow.Add(-time.Duration(k)*37*time.Minute%(2*datedWindow) - 123456*time.Nanosecond)
			switch k % 7 {
			case 0:
				buy(user, pid, time.Time{})
				buy(user, pid, at)
			case 3:
				buy(user, pid, at)
				buy(user, pid, at.Add(-time.Hour))
			case 5:
				buy(user, pid, at)
				if err := w.RecordPurchase(user, pid); err != nil {
					t.Fatal(err)
				}
			default:
				buy(user, pid, at)
			}
		}
	}
}

// purchaseReadsEqual asserts b answers the §5.2 reads exactly like a — bit
// for bit, scores included: Trending over the dated fixtures' window, and
// TiedSales anchored at each of a's ten best sellers.
func purchaseReadsEqual(t *testing.T, a, b *Engine) {
	t.Helper()
	if ta, tb := a.Trending(datedNow, datedWindow, -1), b.Trending(datedNow, datedWindow, -1); !reflect.DeepEqual(ta, tb) {
		t.Fatalf("Trending differs:\n  a=%+v\n  b=%+v", ta, tb)
	}
	tops, err := a.Recommend(StrategyTopSeller, "", "", 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, top := range tops {
		if sa, sb := a.TiedSales(top.ProductID, 1, -1), b.TiedSales(top.ProductID, 1, -1); !reflect.DeepEqual(sa, sb) {
			t.Fatalf("TiedSales(%s) differs:\n  a=%+v\n  b=%+v", top.ProductID, sa, sb)
		}
	}
}

// datedReference is the single in-memory engine every copy must answer
// like, checked to be a non-trivial reference: some products trend, some
// with several buyers, and not every purchase is in the window.
func datedReference(t *testing.T, u *workload.Universe) *Engine {
	t.Helper()
	ref := NewEngine(u.Catalog, WithNeighbors(8), WithShards(8))
	buyDated(t, u, ref)
	hot := ref.Trending(datedNow, datedWindow, -1)
	inWindow, several := 0, false
	for _, entry := range hot {
		inWindow += entry.Count
		several = several || entry.Count > 1
	}
	total := 0
	for _, pids := range u.Purchases() {
		total += len(pids)
	}
	if inWindow == 0 || inWindow >= total || !several {
		t.Fatalf("reference is trivial: %d of %d purchases trend over %d products", inWindow, total, len(hot))
	}
	return ref
}

// TestDatedTrafficReplicatesByteIdentical: followers that tail dated
// purchases as journal records answer Trending and TiedSales like the owner
// and like one in-memory engine, and their WALs — live state and compacted
// file — are byte-identical to the owner's: the dated variant of
// TestReplicatedWALByteIdentical.
func TestDatedTrafficReplicatesByteIdentical(t *testing.T) {
	t.Run("resident", func(t *testing.T) {
		u, profiles := soakUniverse(t)
		dirs := []string{t.TempDir(), t.TempDir()}
		c := newReplCluster(t, u, 2, func(i int) []Option {
			return []Option{WithPersistence(dirs[i])}
		})
		if err := c.routers[0].SetProfiles(profiles); err != nil {
			t.Fatal(err)
		}
		c.sync(t) // cold followers page the profiles in; from here they tail records
		before := sumSnapshots(c.repls[0].Stats()) + sumSnapshots(c.repls[1].Stats())
		buyDated(t, u, c.routers[0])
		c.sync(t)
		if after := sumSnapshots(c.repls[0].Stats()) + sumSnapshots(c.repls[1].Stats()); after != before {
			t.Fatalf("purchases travelled by snapshot (%d -> %d catch-ups), want journal records", before, after)
		}
		ref := datedReference(t, u)
		if err := ref.SetProfiles(profiles); err != nil {
			t.Fatal(err)
		}
		for _, e := range c.engines {
			purchaseReadsEqual(t, ref, e)
			communityEqual(t, ref, e)
			if err := e.Err(); err != nil {
				t.Fatal(err)
			}
		}
		c.close(t)
		if snap0, snap1 := walSnapshot(t, dirs[0]), walSnapshot(t, dirs[1]); len(snap0) == 0 || !bytes.Equal(snap0, snap1) {
			t.Fatalf("WAL live states differ: %d vs %d bytes", len(snap0), len(snap1))
		}
		if raw0, raw1 := compactedWAL(t, dirs[0]), compactedWAL(t, dirs[1]); len(raw0) == 0 || !bytes.Equal(raw0, raw1) {
			t.Fatalf("compacted WALs differ: %d vs %d bytes", len(raw0), len(raw1))
		}
	})
}

// TestDatedTrafficSurvivesPagedCatchUp: a cold follower that pages the shard
// in 1 KiB pages holds the owner's purchase times, and so does its journal:
// the times survive SnapshotPage -> ShardData.add -> applyShardSnapshot
// -> SaveShard -> reopen.
func TestDatedTrafficSurvivesPagedCatchUp(t *testing.T) {
	u, profiles := soakUniverse(t)
	ref := datedReference(t, u)
	owner, err := Open(u.Catalog, WithJournalFeed(0), WithNeighbors(8), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	if err := owner.SetProfiles(profiles[:10]); err != nil {
		t.Fatal(err)
	}
	buyDated(t, u, owner)

	dir := t.TempDir()
	opts := []Option{WithJournalFeed(0), WithNeighbors(8), WithShards(1), WithPersistence(dir)}
	follower, err := Open(u.Catalog, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	repl, err := NewReplicator(follower, 1, []Peer{LocalPeer{Engine: owner, PageBytes: 1024}, nil})
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := repl.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if st := repl.Stats().Shards[0]; st.Snapshots != 1 || st.Pages < 10 {
		t.Fatalf("catch-up took %d snapshot(s) in %d page(s), want one paged transfer of many", st.Snapshots, st.Pages)
	}
	purchaseReadsEqual(t, ref, owner)
	purchaseReadsEqual(t, ref, follower)
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(u.Catalog, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	purchaseReadsEqual(t, ref, reopened)
}

// TestDatedTrafficSurvivesCrashAndCompaction: a copy of a live engine's WAL
// directory taken without Close — what a crash leaves — reopens to the same
// Trending and TiedSales, and answers the same after CompactState and after
// reopening the compacted journal.
func TestDatedTrafficSurvivesCrashAndCompaction(t *testing.T) {
	u, _ := soakUniverse(t)
	ref := datedReference(t, u)
	live, err := Open(u.Catalog, WithNeighbors(8), WithShards(8), WithPersistence(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	buyDated(t, u, live)
	purchaseReadsEqual(t, ref, live)

	image := t.TempDir()
	wal, err := os.ReadFile(filepath.Join(live.stateDir, CommunityWAL))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(image, CommunityWAL), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(u.Catalog, WithNeighbors(8), WithShards(8), WithPersistence(image))
	if err != nil {
		t.Fatal(err)
	}
	purchaseReadsEqual(t, ref, reopened)
	if err := reopened.CompactState(); err != nil {
		t.Fatal(err)
	}
	purchaseReadsEqual(t, ref, reopened)
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}

	compacted, err := Open(u.Catalog, WithNeighbors(8), WithShards(8), WithPersistence(image))
	if err != nil {
		t.Fatal(err)
	}
	defer compacted.Close()
	purchaseReadsEqual(t, ref, compacted)
}

// TestRepeatPurchaseKeepsLaterTime: buying the same product again with an
// OLDER time moves nothing — in memory, on a follower, and after a reopen —
// and ten thousand repeats of one pair leave the engine holding one purchase
// entry: a purchase costs its place in the purchase set and nothing per
// event.
func TestRepeatPurchaseKeepsLaterTime(t *testing.T) {
	cat := catalog.New()
	dir := t.TempDir()
	const repeats = 10_000
	opts := []Option{WithJournalFeed(2 * repeats), WithShards(1), WithPersistence(dir)}
	owner, err := Open(cat, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	follower, err := Open(cat, WithJournalFeed(0), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	repl, err := NewReplicator(follower, 1, []Peer{LocalPeer{Engine: owner}, nil})
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := repl.Sync(ctx); err != nil { // empty catch-up: what follows travels as records
		t.Fatal(err)
	}

	for i := 0; i < repeats; i++ {
		if err := owner.Observe("u", nil, []PurchasePair{PurchaseAt("u", "p", datedNow.Add(-time.Duration(i)*time.Second))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := repl.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := repl.Stats().Shards[0].Records; got != repeats {
		t.Fatalf("follower applied %d journal records, want %d", got, repeats)
	}
	if err := owner.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(cat, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()

	for name, e := range map[string]*Engine{"owner": owner, "follower": follower, "reopened": reopened} {
		// Only the first, latest purchase is inside the last second.
		hot := e.Trending(datedNow, time.Second/2, -1)
		if len(hot) != 1 || hot[0] != (TrendEntry{ProductID: "p", Count: 1, Score: 1}) {
			t.Errorf("%s: Trending = %+v, want p once at full weight", name, hot)
		}
		entries := 0
		for _, sh := range e.shards {
			for _, c := range sh.consumers {
				entries += len(c.bought)
			}
		}
		if entries != 1 {
			t.Errorf("%s holds %d purchase entries after %d repeats of one pair, want 1", name, entries, repeats)
		}
		if top := e.topSellers("", 1, "topseller"); len(top) != 1 || top[0].Score != repeats {
			t.Errorf("%s: top sellers = %+v, want p sold %d times", name, top, repeats)
		}
	}
}

// TestMarkerFromBeforePurchaseTimesLoads: a journal written when the purchase
// value was the bare 0x01 marker opens with no conversion — the purchase is
// owned and ties sales, dated 1 ms past the epoch so it never trends — while
// a value that is no uvarint is refused rather than guessed at.
func TestMarkerFromBeforePurchaseTimesLoads(t *testing.T) {
	write := func(value []byte) string {
		dir := t.TempDir()
		store, err := kvstore.Open(filepath.Join(dir, CommunityWAL))
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []kvstore.Op{
			{Bucket: purchBucket(0), Key: "u\x00p", Value: value},
			{Bucket: purchBucket(0), Key: "u\x00q", Value: []byte{1}},
			{Bucket: sellBucket(0), Key: "p", Value: []byte("1")},
		} {
			if err := store.Apply([]kvstore.Op{op}); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	e, err := Open(catalog.New(), WithShards(1), WithPersistence(write([]byte{1})))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if !e.Snapshot().Purchases("u")["p"] {
		t.Error("marker purchase not owned after reopen")
	}
	if ties := e.TiedSales("p", 1, -1); len(ties) != 1 || ties[0].ProductID != "q" {
		t.Errorf("TiedSales = %+v, want q", ties)
	}
	if hot := e.Trending(datedNow, 50*365*24*time.Hour, -1); len(hot) != 0 {
		t.Errorf("marker purchase trends: %+v", hot)
	}
	for _, bad := range [][]byte{{}, {0x80}, {0, 0}} {
		if e, err := Open(catalog.New(), WithShards(1), WithPersistence(write(bad))); err == nil {
			e.Close()
			t.Errorf("purchase value %x opened", bad)
		}
	}
}
