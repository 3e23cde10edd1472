package recommend

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"agentrec/internal/catalog"
	"agentrec/internal/profile"
	"agentrec/internal/workload"
)

// Unit tests for the paged snapshot protocol: page reassembly equals the
// live shard, a write between pages leaves the transfer's pin as it was, a
// wholesale replace drops it, a page the follower's journal cannot hold
// leaves journal and memory agreeing, and trimmed tail replies leave real
// lag in Stats. The TCP end of the protocol is tested in
// internal/replnet.

// liveShard returns shard's live state as a ShardData image, the reference
// a paged transfer is compared against, built straight from memory rather
// than through ShardData.add.
func liveShard(t *testing.T, e *Engine, shard int) ShardData {
	t.Helper()
	sh := e.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var data ShardData
	for _, id := range slices.Sorted(maps.Keys(sh.consumers)) {
		c := sh.consumers[id]
		if c.prof != nil {
			enc, err := c.prof.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			data.Profiles, data.Encoded = append(data.Profiles, c.prof), append(data.Encoded, enc)
		}
		for _, p := range c.bought {
			data.Purchases = append(data.Purchases, PurchasePair{UserID: id, ProductID: p.product, AtEpochMS: p.at})
		}
	}
	for _, pid := range slices.Sorted(maps.Keys(sh.sells)) {
		data.Sells = append(data.Sells, SellCount{ProductID: pid, Total: sh.sells[pid]})
	}
	return data
}

// imageOf assembles pg, one page of shard on e, into a ShardData image.
func imageOf(t *testing.T, e *Engine, shard int, pg SnapshotPage) ShardData {
	t.Helper()
	var data ShardData
	if err := data.add(shard, e.nshards, pg); err != nil {
		t.Fatal(err)
	}
	return data
}

// pagedShard returns the shard of e that holds the most consumers, with the
// pinned marker a stale cursor is answered with.
func pagedShard(t *testing.T, e *Engine) (shard int, tr TailResult) {
	t.Helper()
	best, bestUsers := -1, 0
	for s := 0; s < e.nshards; s++ {
		if n := len(liveShard(t, e, s).Profiles); n > bestUsers {
			best, bestUsers = s, n
		}
	}
	if best < 0 || bestUsers < 4 {
		t.Fatalf("no shard with enough consumers to page (best %d: %d users)", best, bestUsers)
	}
	tr, err := e.JournalTail(best, 0, 0) // stale cursor: answered with the marker
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Paged || tr.Records != nil {
		t.Fatalf("shard %d: stale cursor answered %+v, want the paged marker", best, tr)
	}
	return best, tr
}

// pageAll drives a full paged transfer against e at the given pin,
// asserting it takes more than one page.
func pageAll(t *testing.T, e *Engine, shard int, epoch, seq uint64, maxBytes int) ShardData {
	t.Helper()
	var data ShardData
	token := ""
	pages := 0
	for {
		pg, err := e.SnapshotPage(shard, epoch, seq, token, maxBytes)
		if err != nil {
			t.Fatal(err)
		}
		if pg.Epoch != epoch || pg.Seq != seq {
			t.Fatalf("pin moved mid-transfer: (%d,%d) -> (%d,%d)", epoch, seq, pg.Epoch, pg.Seq)
		}
		if err := data.add(shard, e.nshards, pg); err != nil {
			t.Fatal(err)
		}
		pages++
		if pg.Next == "" {
			break
		}
		token = pg.Next
		if pages > 10000 {
			t.Fatal("paged transfer does not terminate")
		}
	}
	if pages < 2 {
		t.Fatalf("transfer took %d page(s); shrink the budget so paging is exercised", pages)
	}
	return data
}

// snapshotsEqual compares two shard images, profiles by their marshaled
// bytes, purchases with their times.
func snapshotsEqual(t *testing.T, got, want ShardData) {
	t.Helper()
	marshaled := func(s ShardData) [][]byte {
		out := make([][]byte, len(s.Profiles))
		for i, p := range s.Profiles {
			enc, err := p.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			out[i] = enc
		}
		return out
	}
	if gp, wp := marshaled(got), marshaled(want); !slices.EqualFunc(gp, wp, bytes.Equal) {
		t.Fatalf("shard profiles differ: got %d, want %d", len(gp), len(wp))
	}
	if !slices.Equal(got.Purchases, want.Purchases) {
		t.Fatalf("shard purchases differ: got %v, want %v", got.Purchases, want.Purchases)
	}
	if !slices.Equal(got.Sells, want.Sells) {
		t.Fatalf("shard sells differ: got %v, want %v", got.Sells, want.Sells)
	}
}

// TestSnapshotPagesReassembleWholeShard: a paged transfer under a tiny
// budget must reassemble exactly the live shard.
func TestSnapshotPagesReassembleWholeShard(t *testing.T) {
	u, profiles := soakUniverse(t)
	e, err := Open(u.Catalog, WithJournalFeed(0), WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.SetProfiles(profiles); err != nil {
		t.Fatal(err)
	}
	for user, pids := range u.Purchases() {
		for _, pid := range pids {
			if err := e.RecordPurchase(user, pid); err != nil {
				t.Fatal(err)
			}
		}
	}
	shard, tr := pagedShard(t, e)
	paged := pageAll(t, e, shard, tr.Epoch, tr.Seq, 1024)
	snapshotsEqual(t, paged, liveShard(t, e, shard))
}

// TestConcurrentTransfersSharePin: transfers of one quiet shard running at
// once share its pin, and the first to serve its last page drops it; a
// continuation then finds the pin at the shard's unchanged version taken
// again, the same cut, so every transfer reassembles the live shard.
func TestConcurrentTransfersSharePin(t *testing.T) {
	u, profiles := soakUniverse(t)
	e, err := Open(u.Catalog, WithJournalFeed(0), WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.SetProfiles(profiles); err != nil {
		t.Fatal(err)
	}
	shard, tr := pagedShard(t, e)
	want := liveShard(t, e, shard)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				var data ShardData
				token := ""
				for {
					pg, err := e.SnapshotPage(shard, tr.Epoch, tr.Seq, token, 1024)
					if err != nil {
						t.Errorf("transfer %d: %v", g, err)
						return
					}
					if pg.Seq != tr.Seq {
						t.Errorf("transfer %d answered at seq %d, want the quiet shard's %d", g, pg.Seq, tr.Seq)
						return
					}
					if err := data.add(shard, e.nshards, pg); err != nil {
						t.Errorf("transfer %d: %v", g, err)
						return
					}
					if pg.Next == "" {
						break
					}
					token = pg.Next
				}
				if !slices.EqualFunc(data.Encoded, want.Encoded, bytes.Equal) || !slices.Equal(data.Purchases, want.Purchases) {
					t.Errorf("transfer %d reassembled %d profiles, want the live shard's %d", g, len(data.Encoded), len(want.Encoded))
				}
			}
		}()
	}
	wg.Wait()
}

// TestPagedInstallWALByteIdentical: two durable followers that page the
// same cut of a shard journal it in the same bytes — the image's key order,
// never a map's, decides every record — so their community.wal files are
// identical byte for byte, not only in live state.
func TestPagedInstallWALByteIdentical(t *testing.T) {
	u, profiles := soakUniverse(t)
	owner := bulkEngine(t, u, profiles, WithJournalFeed(0), WithShards(1))
	var wals [2][]byte
	for i := range wals {
		dir := t.TempDir()
		follower, err := Open(u.Catalog, WithJournalFeed(0), WithShards(1), WithPersistence(dir))
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReplicator(follower, 1, []Peer{LocalPeer{Engine: owner, PageBytes: 4096}, nil})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Sync(context.Background()); err != nil {
			t.Fatal(err)
		}
		if st := r.Stats().Shards[0]; st.Snapshots != 1 || st.Pages < 2 {
			t.Fatalf("follower %d installed %d snapshot(s) over %d page(s), want one multi-page transfer", i, st.Snapshots, st.Pages)
		}
		r.Close()
		if err := follower.Close(); err != nil {
			t.Fatal(err)
		}
		if wals[i], err = os.ReadFile(filepath.Join(dir, CommunityWAL)); err != nil {
			t.Fatal(err)
		}
	}
	if len(wals[0]) == 0 || !bytes.Equal(wals[0], wals[1]) {
		t.Fatalf("the same transfer journaled as %d and %d bytes that differ", len(wals[0]), len(wals[1]))
	}
}

// TestSnapshotPageServesPinAcrossWrites: a write between pages leaves the
// transfer at its pin. Every page is cut from the pin the first page took,
// so the image is the shard as it stood before the write, the shard drops
// the pin once its last page is served, and a tail from the pin carries
// the write as its one record.
func TestSnapshotPageServesPinAcrossWrites(t *testing.T) {
	u, profiles := soakUniverse(t)
	e, err := Open(u.Catalog, WithJournalFeed(0), WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.SetProfiles(profiles); err != nil {
		t.Fatal(err)
	}
	shard, tr := pagedShard(t, e)
	before := liveShard(t, e, shard)
	first, err := e.SnapshotPage(shard, tr.Epoch, tr.Seq, "", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if first.Next == "" {
		t.Fatal("transfer fit one page; shrink the budget")
	}
	if first.Epoch != tr.Epoch || first.Seq != tr.Seq {
		t.Fatalf("first page pinned at (%x,%d), want the marker's (%x,%d)", first.Epoch, first.Seq, tr.Epoch, tr.Seq)
	}

	// A write to the paged shard moves its version, not the transfer's pin.
	var moved *profile.Profile
	for i := 0; ; i++ {
		id := fmt.Sprintf("mid-transfer-%d", i)
		if e.ShardOf(id) == shard {
			moved = profile.NewProfile(id)
			break
		}
	}
	if err := e.SetProfile(moved); err != nil {
		t.Fatal(err)
	}

	paged := imageOf(t, e, shard, first)
	for token := first.Next; token != ""; {
		pg, err := e.SnapshotPage(shard, first.Epoch, first.Seq, token, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if pg.Epoch != first.Epoch || pg.Seq != first.Seq {
			t.Fatalf("pin moved mid-transfer: (%x,%d) -> (%x,%d)", first.Epoch, first.Seq, pg.Epoch, pg.Seq)
		}
		if err := paged.add(shard, e.nshards, pg); err != nil {
			t.Fatal(err)
		}
		token = pg.Next
	}
	snapshotsEqual(t, paged, before)
	if n := len(e.shards[shard].pins); n != 0 {
		t.Fatalf("shard keeps %d pin(s) after the transfer's last page, want none", n)
	}
	next, err := e.JournalTail(shard, first.Epoch, first.Seq)
	if err != nil || next.Paged || len(next.Records) != 1 || next.Records[0].Seq != first.Seq+1 {
		t.Fatalf("tail from the pin answered %+v (%v), want the write as one record at seq %d", next, err, first.Seq+1)
	}
	if recs := next.Records[0].Profiles; len(recs) != 1 || !bytes.Contains(recs[0], []byte(moved.UserID)) {
		t.Fatalf("the record after the pin carries %d profile(s), want %s's", len(recs), moved.UserID)
	}
}

// TestSnapshotPagePinMovesOnWholesaleReplace: a wholesale install changes a
// shard's state without a journal record, so it must move the feed head all
// the same and drop the shard's pins — a continuation of a transfer pinned
// before the replace is refused the old pin and answered with the first
// page of a fresh cut, never the old pin over the new state (a torn
// snapshot a server promoted mid-catch-up could hand a joiner), and a tail
// cursor taken before the replace pages instead of resuming.
func TestSnapshotPagePinMovesOnWholesaleReplace(t *testing.T) {
	u, profiles := soakUniverse(t)
	e, err := Open(u.Catalog, WithJournalFeed(0), WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.SetProfiles(profiles); err != nil {
		t.Fatal(err)
	}
	shard, tr := pagedShard(t, e)
	first, err := e.SnapshotPage(shard, tr.Epoch, tr.Seq, "", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if first.Next == "" {
		t.Fatal("transfer fit one page; shrink the budget")
	}

	live := liveShard(t, e, shard).Encoded
	half := imageOf(t, e, shard, SnapshotPage{Profiles: live[:len(live)/2]})
	if err := e.applyShardSnapshot(shard, half, (*OwnershipTable).admitOwner); err != nil {
		t.Fatal(err)
	}
	if n := len(e.shards[shard].pins); n != 0 {
		t.Fatalf("shard keeps %d pin(s) after a wholesale replace, want none", n)
	}

	second, err := e.SnapshotPage(shard, tr.Epoch, tr.Seq, first.Next, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if second.Epoch == tr.Epoch && second.Seq == tr.Seq {
		t.Fatalf("page after a wholesale replace still answers at the old pin (%x, %d): torn snapshot", tr.Epoch, tr.Seq)
	}
	paged := pageAll(t, e, shard, second.Epoch, second.Seq, 1024)
	snapshotsEqual(t, paged, liveShard(t, e, shard))
	if len(paged.Profiles) != len(half.Profiles) {
		t.Fatalf("restarted transfer carries %d consumers, want the %d installed", len(paged.Profiles), len(half.Profiles))
	}
	if stale, err := e.JournalTail(shard, tr.Epoch, tr.Seq); err != nil || !stale.Paged {
		t.Fatalf("cursor from before the replace answered %+v (%v), want the paged marker", stale, err)
	}
	// The feed keeps working past the replace: a cursor at the new
	// head tails the next write as a record.
	head, err := e.JournalTail(shard, second.Epoch, second.Seq)
	if err != nil || head.Paged || len(head.Records) != 0 {
		t.Fatalf("cursor at the new head answered %+v (%v), want an empty tail", head, err)
	}
	if err := e.SetProfile(half.Profiles[0]); err != nil {
		t.Fatal(err)
	}
	if next, err := e.JournalTail(shard, second.Epoch, second.Seq); err != nil || len(next.Records) != 1 || next.Records[0].Seq != second.Seq+1 {
		t.Fatalf("write after the replace tailed as %+v (%v), want one record at seq %d", next, err, second.Seq+1)
	}
}

// expiringPeer serves an in-process owner and, after the first page it
// serves, runs burst once: writes the owner takes while the transfer runs,
// under a 64-byte page budget enough to make it drop the transfer's pin.
type expiringPeer struct {
	LocalPeer
	burst func()
}

func (p *expiringPeer) SnapshotPage(ctx context.Context, shard int, epoch, seq uint64, token string) (SnapshotPage, error) {
	pg, err := p.LocalPeer.SnapshotPage(ctx, shard, epoch, seq, token)
	if burst := p.burst; burst != nil && err == nil {
		p.burst = nil
		burst()
	}
	return pg, err
}

// TestPagedBootstrapCountsWritesDuringTransfer: an owner takes writes
// while a cold follower pages its shard in. Once the Sync that paged it
// returns, the follower holds those writes when the owner's feed still
// reaches the transfer's pin, and otherwise counts them as lag; either way
// it never reads caught up while behind.
func TestPagedBootstrapCountsWritesDuringTransfer(t *testing.T) {
	const writes = 5
	for _, c := range []struct {
		name string
		tail int // the owner's feed retention
		held bool
	}{
		{"tailed", 0, true},
		{"feed overrun", writes - 2, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			owner, err := Open(catalog.New(), WithJournalFeed(c.tail), WithShards(2))
			if err != nil {
				t.Fatal(err)
			}
			defer owner.Close()
			ids := shardIDs(owner, 0, writes+3)
			for _, id := range ids[:3] {
				if err := owner.SetProfile(profile.NewProfile(id)); err != nil {
					t.Fatal(err)
				}
			}
			follower, err := Open(catalog.New(), WithJournalFeed(0), WithShards(2))
			if err != nil {
				t.Fatal(err)
			}
			defer follower.Close()
			peer := &expiringPeer{LocalPeer: LocalPeer{Engine: owner}, burst: func() {
				for _, id := range ids[3:] {
					if err := owner.RecordPurchase(id, "p1"); err != nil {
						t.Error(err)
					}
				}
			}}
			r, err := NewReplicator(follower, 1, []Peer{peer, nil})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if err := r.Sync(context.Background()); err != nil {
				t.Fatal(err)
			}
			st, head := r.Stats().Shards[0], owner.FeedHeads()[0]
			if st.Snapshots != 1 || st.OwnerSeq != head {
				t.Fatalf("shard 0 after the paged pull: %+v; want one snapshot and the owner's head %d", st, head)
			}
			if c.held && (st.Records != writes || st.LagRecords != 0 || st.AppliedSeq != head) {
				t.Fatalf("shard 0 after the paged pull: %+v; want the %d writes applied", st, writes)
			}
			if !c.held && (st.Records != 0 || st.LagRecords != writes) {
				t.Fatalf("shard 0 after the paged pull: %+v; want the %d writes as lag", st, writes)
			}
		})
	}
}

// TestSnapshotPinExpiry: a shard keeps at most maxShardPins pins and evicts
// the oldest, and drops a pin once the feed ring no longer holds the record
// after it. A continuation at a dropped pin is answered with the first page
// of the current one, which ends the follower's pull with an error and no
// saved transfer; its next pull pages afresh and converges.
func TestSnapshotPinExpiry(t *testing.T) {
	const ring = 4
	owner, err := Open(catalog.New(), WithJournalFeed(ring), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	write := func(id string) {
		t.Helper()
		if err := owner.SetProfile(profile.NewProfile(id)); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 3 {
		write(fmt.Sprintf("c-%d", i))
	}
	firstPage := func() SnapshotPage {
		t.Helper()
		pg, err := owner.SnapshotPage(0, 0, 0, "", 64)
		if err != nil || pg.Next == "" {
			t.Fatalf("first page: next %q, %v; want a multi-page transfer", pg.Next, err)
		}
		return pg
	}
	pinSeqs := func() []uint64 {
		var seqs []uint64
		for _, p := range owner.shards[0].pins {
			seqs = append(seqs, p.seq)
		}
		return seqs
	}

	// Eviction: five transfers begun at five versions keep the newest four.
	var firsts []SnapshotPage
	for i := range maxShardPins + 1 {
		firsts = append(firsts, firstPage())
		write(fmt.Sprintf("evict-%d", i))
	}
	if got, want := pinSeqs(), []uint64{firsts[1].Seq, firsts[2].Seq, firsts[3].Seq, firsts[4].Seq}; !slices.Equal(got, want) {
		t.Fatalf("pins at %v, want the newest %d at %v", got, maxShardPins, want)
	}
	head := owner.FeedHeads()[0]
	if pg, err := owner.SnapshotPage(0, firsts[0].Epoch, firsts[0].Seq, firsts[0].Next, 64); err != nil || pg.Seq != head {
		t.Fatalf("continuation at the evicted pin answered at seq %d (%v), want the first page at %d", pg.Seq, err, head)
	}

	// Ring expiry: the pin stays while the ring holds the record after it.
	pin := firstPage()
	for i := range ring {
		write(fmt.Sprintf("ring-%d", i))
	}
	if !slices.Contains(pinSeqs(), pin.Seq) {
		t.Fatalf("pin %d dropped while the ring still holds record %d", pin.Seq, pin.Seq+1)
	}
	write("ring-past")
	if slices.Contains(pinSeqs(), pin.Seq) {
		t.Fatalf("pin %d kept after the ring dropped record %d", pin.Seq, pin.Seq+1)
	}

	// The follower's side of an expired pin.
	follower, err := Open(catalog.New(), WithJournalFeed(0), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	peer := &expiringPeer{LocalPeer: LocalPeer{Engine: owner, PageBytes: 64}, burst: func() {
		for i := range ring + 1 {
			write(fmt.Sprintf("burst-%d", i))
		}
	}}
	r, err := NewReplicator(follower, 1, []Peer{peer, nil})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	if err := r.Sync(ctx); err == nil || !strings.Contains(err.Error(), "expired") {
		t.Fatalf("pull across an expired pin: %v, want the expiry", err)
	}
	if st := r.Stats().Shards[0]; st.Snapshots != 0 || !strings.Contains(st.LastError, "expired") {
		t.Fatalf("after the expiry: %d snapshot(s), last error %q", st.Snapshots, st.LastError)
	}
	if r.followed[0].xfer != nil {
		t.Fatal("an expired transfer was saved for resumption")
	}
	if err := r.Sync(ctx); err != nil {
		t.Fatalf("the pull after the expiry: %v", err)
	}
	communityEqual(t, owner, follower)
}

// TestStaleCursorTailIsConstantWork: a cursor the owner cannot serve is
// answered with the pinned marker alone — no shard lock, no profile
// marshalled — so the reply costs the same for a 50- and a 2 000-consumer
// shard.
func TestStaleCursorTailIsConstantWork(t *testing.T) {
	u, _ := soakUniverse(t)
	allocs := func(consumers int) float64 {
		e, err := Open(u.Catalog, WithJournalFeed(0), WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		profs := make([]*profile.Profile, consumers)
		for i := range profs {
			profs[i] = profile.NewProfile(fmt.Sprintf("consumer-%04d", i))
		}
		if err := e.SetProfiles(profs); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if tr, err := e.JournalTail(0, 0, 0); err != nil || !tr.Paged {
				t.Fatalf("stale cursor answered %+v (%v), want the paged marker", tr, err)
			}
		})
	}
	small, large := allocs(50), allocs(2000)
	if small > 2 || small != large {
		t.Fatalf("stale-cursor tail allocates %.0f times on 50 consumers, %.0f on 2000; want <= 2 and equal", small, large)
	}
}

// TestRefusedPageLeavesJournalAndMemoryAgreeing: a page a persisted
// follower's journal cannot hold — a purchase whose product id holds a NUL,
// which a memory-only owner accepts — is refused before the follower's
// journal changes, so a restart recovers what memory went on serving; and a
// page carrying a purchase by another shard's consumer, or a profile,
// purchase or sell count that repeats or precedes the entry before it, is
// refused as it arrives. Either way the shard keeps the state it held.
func TestRefusedPageLeavesJournalAndMemoryAgreeing(t *testing.T) {
	probe := NewEngine(catalog.New(), WithShards(2))
	ids, foreign := shardIDs(probe, 0, 4), shardIDs(probe, 1, 1)[0]
	enc := func(id string) []byte {
		b, err := profile.NewProfile(id).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		name string
		pg   SnapshotPage
		want error
	}{
		{"nul-product", SnapshotPage{Profiles: [][]byte{enc(ids[3])}, Purchases: []PurchasePair{{UserID: ids[3], ProductID: "p\x00x"}}}, ErrBadKey},
		{"foreign-purchase", SnapshotPage{Purchases: []PurchasePair{{UserID: foreign, ProductID: "p1"}}}, ErrShardMismatch},
		{"profiles-out-of-order", SnapshotPage{Profiles: [][]byte{enc(ids[3]), enc(ids[0])}}, errOutOfOrder},
		{"profiles-repeated", SnapshotPage{Profiles: [][]byte{enc(ids[3]), enc(ids[3])}}, errOutOfOrder},
		{"purchases-out-of-order", SnapshotPage{Purchases: []PurchasePair{{UserID: ids[3], ProductID: "p2"}, {UserID: ids[3], ProductID: "p1"}}}, errOutOfOrder},
		{"purchases-repeated", SnapshotPage{Purchases: []PurchasePair{{UserID: ids[3], ProductID: "p1"}, {UserID: ids[3], ProductID: "p1", AtEpochMS: 1}}}, errOutOfOrder},
		{"sells-out-of-order", SnapshotPage{Sells: []SellCount{{ProductID: "p2", Total: 1}, {ProductID: "p1", Total: 1}}}, errOutOfOrder},
		{"sells-repeated", SnapshotPage{Sells: []SellCount{{ProductID: "p1", Total: 1}, {ProductID: "p1", Total: 2}}}, errOutOfOrder},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := pageFollower(t)
			tc.pg.Shards = 2
			var data ShardData
			err := data.add(0, e.nshards, tc.pg)
			if err == nil {
				err = e.applyShardSnapshot(0, data, (*OwnershipTable).admitOwner)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("page installed with %v, want %v", err, tc.want)
			}
			if _, err := e.Profile(ids[0]); err != nil {
				t.Fatalf("refused page dropped %s from memory: %v", ids[0], err)
			}
			journalMatchesMemory(t, e, 0)
		})
	}
}

// TestWholesaleReplaceServesItsOwnSells: a wholesale replace of shard 0 that
// lowers one product's attributed count and drops another's leaves top
// sellers — for every product and per category — equal to those of a fresh
// engine that only ever installed the same shard states, and a restart
// recovers that answer. Shard 1's sales of the same products stay counted.
func TestWholesaleReplaceServesItsOwnSells(t *testing.T) {
	cat := catalog.New()
	for _, p := range []struct{ id, category string }{{"lap1", "laptop"}, {"lap2", "laptop"}, {"cam1", "camera"}, {"cam2", "camera"}} {
		if err := cat.Add(&catalog.Product{ID: p.id, Name: p.id, Category: p.category, Terms: map[string]float64{"x": 1}, PriceCents: 100, SellerID: "s", Stock: 5}); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	e, err := Open(cat, WithShards(2), WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ids0, ids1 := shardIDs(e, 0, 3), shardIDs(e, 1, 2)
	buys := map[string][]string{
		ids0[0]: {"lap1", "lap2", "cam1"}, ids0[1]: {"lap1", "lap2"}, ids0[2]: {"lap1"},
		ids1[0]: {"lap1", "lap2", "cam2"}, ids1[1]: {"lap2"},
	}
	for user, pids := range buys {
		if err := e.SetProfile(profile.NewProfile(user)); err != nil {
			t.Fatal(err)
		}
		for _, pid := range pids {
			if err := e.RecordPurchase(user, pid); err != nil {
				t.Fatal(err)
			}
		}
	}
	topSellers := func(e *Engine) map[string][]Rec {
		t.Helper()
		out := make(map[string][]Rec)
		for _, category := range []string{"", "laptop", "camera"} {
			recs, err := e.Recommend(StrategyTopSeller, "", category, 10)
			if err != nil {
				t.Fatal(err)
			}
			out[category] = recs
		}
		return out
	}
	before := topSellers(e)

	// Shard 0 now holds one buyer of lap1 and of cam1, and no buyer of lap2.
	enc, err := profile.NewProfile(ids0[0]).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	replaced := imageOf(t, e, 0, SnapshotPage{
		Profiles:  [][]byte{enc},
		Purchases: []PurchasePair{{UserID: ids0[0], ProductID: "cam1"}, {UserID: ids0[0], ProductID: "lap1"}},
		Sells:     []SellCount{{ProductID: "cam1", Total: 1}, {ProductID: "lap1", Total: 1}},
	})
	shard1 := liveShard(t, e, 1)
	if err := e.applyShardSnapshot(0, replaced, (*OwnershipTable).admitOwner); err != nil {
		t.Fatal(err)
	}
	fresh := NewEngine(cat, WithShards(2))
	for shard, data := range []ShardData{replaced, shard1} {
		if err := fresh.applyShardSnapshot(shard, data, (*OwnershipTable).admitOwner); err != nil {
			t.Fatal(err)
		}
	}
	want := topSellers(fresh)
	if reflect.DeepEqual(want, before) {
		t.Fatalf("the replace left top sellers as they were (%v): the test no longer bites", before)
	}
	if got := topSellers(e); !reflect.DeepEqual(got, want) {
		t.Fatalf("top sellers after the replace = %v, want the fresh engine's %v", got, want)
	}

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(cat, WithShards(2), WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := topSellers(reopened); !reflect.DeepEqual(got, want) {
		t.Fatalf("top sellers after a restart = %v, want %v", got, want)
	}
}

// truncatingPeer serves real tails but cuts every record reply to a
// one-record prefix, the in-process stand-in for a transport trimming to
// its frame budget.
type truncatingPeer struct{ e *Engine }

func (p truncatingPeer) JournalTail(_ context.Context, shard int, epoch, since uint64) (TailResult, error) {
	tr, err := p.e.JournalTail(shard, epoch, since)
	if err == nil && len(tr.Records) > 1 {
		tr.Records = tr.Records[:1]
		tr.Seq = tr.Records[0].Seq
	}
	return tr, err
}

func (p truncatingPeer) SnapshotPage(_ context.Context, shard int, epoch, seq uint64, token string) (SnapshotPage, error) {
	return p.e.SnapshotPage(shard, epoch, seq, token, 0)
}

// TestTrimmedReplyLeavesRealLag: when the transport trims a reply, the
// follower is genuinely behind the owner, and Stats must report that lag
// (OwnerSeq carries the owner's feed head, not the trimmed reply's end).
func TestTrimmedReplyLeavesRealLag(t *testing.T) {
	u, profiles := soakUniverse(t)
	owner, err := Open(u.Catalog, WithJournalFeed(0), WithShards(8), WithNeighbors(8))
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	follower, err := Open(u.Catalog, WithJournalFeed(0), WithShards(8), WithNeighbors(8))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	r, err := NewReplicator(follower, 1, []Peer{truncatingPeer{e: owner}, nil})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Sync(ctx); err != nil { // establish cursors while empty
		t.Fatal(err)
	}
	// Seed only consumers on server-0-owned shards, so the pure follower's
	// replicated half is the whole populated community.
	seeded := 0
	for _, p := range profiles {
		if OwnerOf(owner.ShardOf(p.UserID), 2) != 0 {
			continue
		}
		if err := owner.SetProfile(p); err != nil {
			t.Fatal(err)
		}
		seeded++
	}
	if seeded < 16 {
		t.Fatalf("only %d consumers landed on server-0 shards; universe too small", seeded)
	}
	if err := r.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if lag := st.Lag(); lag == 0 {
		t.Fatalf("one-record-per-pull follower of a %d-write owner reports zero lag", seeded)
	}
	behind := 0
	for _, sh := range st.Shards {
		if sh.LagRecords > 0 {
			behind++
			if sh.OwnerSeq <= sh.AppliedSeq {
				t.Fatalf("shard %d: lag without OwnerSeq (%d) past AppliedSeq (%d)",
					sh.Shard, sh.OwnerSeq, sh.AppliedSeq)
			}
		}
	}
	if behind == 0 {
		t.Fatal("no shard reports being behind")
	}
	// Catching up drains the lag to zero.
	for i := 0; i < seeded+8; i++ {
		if err := r.Sync(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if lag := r.Stats().Lag(); lag != 0 {
		t.Fatalf("lag = %d after full catch-up", lag)
	}
	communityEqual(t, owner, follower)
}

// pagingPeer serves an in-process engine under a 512-byte page budget. It
// can fail one page call to simulate a cut transport, and counts token
// requests so tests can prove resumption versus re-download.
type pagingPeer struct {
	e      *Engine
	failAt int // 1-based page call to fail once; 0 = never
	calls  int
	tokens map[string]int
}

func (p *pagingPeer) JournalTail(_ context.Context, shard int, epoch, since uint64) (TailResult, error) {
	return p.e.JournalTail(shard, epoch, since)
}

func (p *pagingPeer) SnapshotPage(_ context.Context, shard int, epoch, seq uint64, token string) (SnapshotPage, error) {
	p.calls++
	p.tokens[fmt.Sprintf("%d|%d|%d|%s", shard, epoch, seq, token)]++
	if p.calls == p.failAt {
		p.failAt = 0
		return SnapshotPage{}, errors.New("simulated transport cut")
	}
	return p.e.SnapshotPage(shard, epoch, seq, token, 512)
}

// TestPagedTransferResumesAcrossPulls: a transfer interrupted mid-flight
// (context expiry, transport cut) must resume from its saved continuation
// token on the next pull while the pin is unchanged — re-downloading a
// large bootstrap from scratch every pull would make a transfer longer
// than the background loop's per-pass budget livelock forever.
func TestPagedTransferResumesAcrossPulls(t *testing.T) {
	u, profiles := soakUniverse(t)
	owner, err := Open(u.Catalog, WithJournalFeed(0), WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	seeded := 0
	for _, p := range profiles {
		if OwnerOf(owner.ShardOf(p.UserID), 2) != 0 {
			continue
		}
		if err := owner.SetProfile(p); err != nil {
			t.Fatal(err)
		}
		seeded++
	}
	follower, err := Open(u.Catalog, WithJournalFeed(0), WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	peer := &pagingPeer{e: owner, failAt: 3, tokens: make(map[string]int)}
	r, err := NewReplicator(follower, 1, []Peer{peer, nil})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Sync(ctx); err == nil {
		t.Fatal("first pass should report the simulated transport cut")
	}
	// Mid-bootstrap, the follower is maximally behind: Stats must already
	// report the lag against the owner's pinned head, not zero.
	if lag := r.Stats().Lag(); lag == 0 {
		t.Fatal("in-flight paged bootstrap reports zero lag")
	}
	if err := r.Sync(ctx); err != nil {
		t.Fatalf("second pass should resume and complete: %v", err)
	}
	// Exactly the failed page request repeats; every other page of every
	// transfer is fetched once. Without resumption the whole prefix of the
	// cut shard's transfer would repeat.
	dups := 0
	for tok, n := range peer.tokens {
		if n > 2 {
			t.Fatalf("page %q requested %d times", tok, n)
		}
		if n == 2 {
			dups++
		}
	}
	if dups != 1 {
		t.Fatalf("%d page requests repeated, want exactly the failed one", dups)
	}
	if got, want := follower.Users(), owner.Users(); !reflect.DeepEqual(got, want) || len(got) != seeded {
		t.Fatalf("user sets differ after resumed transfer: %d vs %d", len(got), len(want))
	}
}

// hotPeer serves an in-process owner under a 512-byte page budget and has
// it take a write on the paged shard between every two pages it serves: a
// new consumer with buy evidence, then a purchase by them, in turn. Each
// write runs beside the next page's cut, which reads the pin with no shard
// lock, and completes before that page is returned.
type hotPeer struct {
	LocalPeer
	u      *workload.Universe
	writes int
	wg     sync.WaitGroup
	err    error // the last write's, read after wg.Wait
}

func (p *hotPeer) SnapshotPage(ctx context.Context, shard int, epoch, seq uint64, token string) (SnapshotPage, error) {
	pg, err := p.LocalPeer.SnapshotPage(ctx, shard, epoch, seq, token)
	p.wg.Wait()
	if p.err != nil {
		return pg, p.err
	}
	if err != nil || pg.Next == "" {
		return pg, err
	}
	k := p.writes
	p.writes++
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		id := shardIDs(p.Engine, shard, k/2+1)[k/2]
		prod := p.u.Products[k%len(p.u.Products)]
		if k%2 == 1 {
			p.err = p.Engine.RecordPurchase(id, prod.ID)
			return
		}
		prof := profile.NewProfile(id)
		if p.err = prof.Observe(prod.Evidence(profile.BehaviourBuy)); p.err == nil {
			p.err = p.Engine.SetProfile(prof)
		}
	}()
	return pg, nil
}

// TestColdFollowerPagesHotShard: a cold follower bootstraps shards whose
// owner takes a write between every two pages. Each transfer completes at
// the pin its first page took, in one pull and with no expired pin, and one
// more pull tails every write taken meanwhile, after which the follower's
// users, profiles and answers equal the owner's.
func TestColdFollowerPagesHotShard(t *testing.T) {
	u, profiles := soakUniverse(t)
	owner, err := Open(u.Catalog, WithJournalFeed(0), WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	owned := func(user string) bool { return OwnerOf(owner.ShardOf(user), 2) == 0 }
	for _, p := range profiles {
		if owned(p.UserID) {
			if err := owner.SetProfile(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	for user, pids := range u.Purchases() {
		for _, pid := range pids {
			if owned(user) {
				if err := owner.RecordPurchase(user, pid); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	follower, err := Open(u.Catalog, WithJournalFeed(0), WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	peer := &hotPeer{LocalPeer: LocalPeer{Engine: owner, PageBytes: 512}, u: u}
	r, err := NewReplicator(follower, 1, []Peer{peer, nil})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Sync(ctx); err != nil {
		t.Fatalf("cold bootstrap of shards taking writes between pages: %v", err)
	}
	st := r.Stats()
	for _, sh := range st.Shards {
		if sh.Snapshots != 1 || sh.Pages < 2 || sh.LastError != "" {
			t.Fatalf("shard %d: %d snapshot(s) over %d page(s), last error %q; want one multi-page transfer",
				sh.Shard, sh.Snapshots, sh.Pages, sh.LastError)
		}
	}
	if peer.writes < 2*len(st.Shards) {
		t.Fatalf("owner took %d writes between pages of %d transfers; the test no longer bites", peer.writes, len(st.Shards))
	}

	if err := r.Sync(ctx); err != nil {
		t.Fatalf("tailing the writes taken during the transfers: %v", err)
	}
	var records uint64
	for _, sh := range r.Stats().Shards {
		records += sh.Records
	}
	if records != uint64(peer.writes) {
		t.Fatalf("the pull after the bootstrap tailed %d records, want the %d writes taken mid-transfer", records, peer.writes)
	}
	communityEqual(t, owner, follower)
}

// BenchmarkReplicationCatchUp measures a cold follower's full snapshot
// catch-up from an in-process owner: the cost of bootstrapping a replica
// of a warm community.
func BenchmarkReplicationCatchUp(b *testing.B) {
	u, err := workload.Generate(workload.Config{
		Seed: 23, Users: 500, Products: 400, Categories: 8, RelevantPerUser: 12,
	})
	if err != nil {
		b.Fatal(err)
	}
	profiles, err := u.Profiles()
	if err != nil {
		b.Fatal(err)
	}
	owner, err := Open(u.Catalog, WithJournalFeed(0), WithShards(8))
	if err != nil {
		b.Fatal(err)
	}
	defer owner.Close()
	if err := owner.SetProfiles(profiles); err != nil {
		b.Fatal(err)
	}
	for user, pids := range u.Purchases() {
		for _, pid := range pids {
			if err := owner.RecordPurchase(user, pid); err != nil {
				b.Fatal(err)
			}
		}
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		follower, err := Open(u.Catalog, WithJournalFeed(0), WithShards(8))
		if err != nil {
			b.Fatal(err)
		}
		r, err := NewReplicator(follower, 1, []Peer{LocalPeer{Engine: owner}, nil})
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Sync(ctx); err != nil {
			b.Fatal(err)
		}
		r.Close()
		follower.Close()
	}
}
