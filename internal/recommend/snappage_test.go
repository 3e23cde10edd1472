package recommend

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"testing"
	"time"

	"agentrec/internal/catalog"
	"agentrec/internal/profile"
	"agentrec/internal/workload"
)

// Unit tests for the paged snapshot protocol: page reassembly equals the
// live shard, a moved pin restarts the transfer, a page the follower's
// journal cannot hold leaves journal and memory agreeing, and trimmed tail
// replies leave real lag in Stats. The TCP end of the protocol is tested in
// internal/replnet.

// liveShard returns shard's live state as ShardData, the reference a paged
// transfer is compared against. The sell map is the shard's own.
func liveShard(t *testing.T, e *Engine, shard int) ShardData {
	t.Helper()
	sh := e.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	data := ShardData{Purchases: make(map[string]map[string]int64), Sells: sh.sells}
	for id, c := range sh.consumers {
		if c.prof != nil {
			data.Profiles = append(data.Profiles, c.prof)
		}
		for _, p := range c.bought {
			if data.Purchases[id] == nil {
				data.Purchases[id] = make(map[string]int64)
			}
			data.Purchases[id][p.product] = p.at
		}
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
		if err := data.addPage(e, shard, pg); err != nil {
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

// snapshotsEqual compares two shard states order-insensitively (the live
// shard follows map iteration order, pages follow key order), profiles by
// their marshaled bytes, purchases with their times.
func snapshotsEqual(t *testing.T, got, want ShardData) {
	t.Helper()
	toSets := func(s ShardData) (profs map[string]bool, purch map[PurchasePair]bool, sells map[string]int64) {
		profs = make(map[string]bool, len(s.Profiles))
		for _, p := range s.Profiles {
			enc, err := p.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			profs[string(enc)] = true
		}
		purch = make(map[PurchasePair]bool)
		for user, set := range s.Purchases {
			for pid, at := range set {
				purch[PurchasePair{UserID: user, ProductID: pid, AtEpochMS: at}] = true
			}
		}
		sells = make(map[string]int64, len(s.Sells))
		for pid, n := range s.Sells {
			sells[pid] = n
		}
		return profs, purch, sells
	}
	gp, gu, gs := toSets(got)
	wp, wu, ws := toSets(want)
	if !reflect.DeepEqual(gp, wp) {
		t.Fatalf("shard profiles differ: got %d, want %d", len(gp), len(wp))
	}
	if !reflect.DeepEqual(gu, wu) {
		t.Fatalf("shard purchases differ: got %v, want %v", gu, wu)
	}
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("shard sells differ: got %v, want %v", gs, ws)
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

// TestSnapshotPageRestartsOnMovedPin: a write between pages moves the
// shard's seq, so the next page request is answered with the first page of
// a fresh transfer at a new pin, which includes the write.
func TestSnapshotPageRestartsOnMovedPin(t *testing.T) {
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

	// A write to the paged shard moves the pin.
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

	second, err := e.SnapshotPage(shard, tr.Epoch, tr.Seq, first.Next, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if second.Epoch != tr.Epoch || second.Seq != tr.Seq+1 {
		t.Fatalf("restarted page pin = (%d,%d), want fresh pin (%d,%d)",
			second.Epoch, second.Seq, tr.Epoch, tr.Seq+1)
	}
	// Completing the restarted transfer yields the post-write state.
	paged := pageAll(t, e, shard, second.Epoch, second.Seq, 1024)
	snapshotsEqual(t, paged, liveShard(t, e, shard))
	found := false
	for _, p := range paged.Profiles {
		if p.UserID == moved.UserID {
			found = true
		}
	}
	if !found {
		t.Fatalf("restarted transfer misses the mid-transfer write %s", moved.UserID)
	}
}

// TestSnapshotPagePinMovesOnWholesaleReplace: a wholesale install changes a
// shard's state without a journal record, so it must move the feed head all
// the same — a page request pinned before the replace is answered with the
// first page of a fresh cut, never the old pin over the new state (a torn
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

	live := liveShard(t, e, shard).Profiles
	half := ShardData{}
	for _, p := range live[:len(live)/2] {
		half.Profiles = append(half.Profiles, p.Clone())
	}
	if err := e.applyShardSnapshot(shard, half, (*OwnershipTable).admitOwner); err != nil {
		t.Fatal(err)
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
	// The feed keeps working past the skipped number: a cursor at the new
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
// page carrying a purchase by another shard's consumer is refused as it
// arrives.
func TestRefusedPageLeavesJournalAndMemoryAgreeing(t *testing.T) {
	e := pageFollower(t)
	ids := shardIDs(e, 0, 4)
	enc, err := profile.NewProfile(ids[3]).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var data ShardData
	pg := SnapshotPage{Shards: 2, Profiles: [][]byte{enc}, Purchases: []PurchasePair{{UserID: ids[3], ProductID: "p\x00x"}}}
	if err := data.addPage(e, 0, pg); err != nil {
		t.Fatal(err)
	}
	if err := e.applyShardSnapshot(0, data, (*OwnershipTable).admitOwner); !errors.Is(err, ErrBadKey) {
		t.Fatalf("page with a NUL product id applied with %v, want ErrBadKey", err)
	}
	if _, err := e.Profile(ids[0]); err != nil {
		t.Fatalf("refused page dropped %s from memory: %v", ids[0], err)
	}
	journalMatchesMemory(t, e, 0)

	foreign := shardIDs(e, 1, 1)[0]
	pg = SnapshotPage{Shards: 2, Purchases: []PurchasePair{{UserID: foreign, ProductID: "p1"}}}
	if err := new(ShardData).addPage(e, 0, pg); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("purchase by %s (shard 1) in a page of shard 0 assembled with %v, want ErrShardMismatch", foreign, err)
	}
}

// cloneShardData deep-copies d, so two engines can each adopt the same
// state without sharing maps.
func cloneShardData(d ShardData) ShardData {
	out := ShardData{Purchases: make(map[string]map[string]int64, len(d.Purchases)), Sells: maps.Clone(d.Sells)}
	for _, p := range d.Profiles {
		out.Profiles = append(out.Profiles, p.Clone())
	}
	for user, set := range d.Purchases {
		out.Purchases[user] = maps.Clone(set)
	}
	return out
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
	replaced := ShardData{
		Profiles:  []*profile.Profile{profile.NewProfile(ids0[0])},
		Purchases: map[string]map[string]int64{ids0[0]: {"lap1": 0, "cam1": 0}},
		Sells:     map[string]int64{"lap1": 1, "cam1": 1},
	}
	shard1 := cloneShardData(liveShard(t, e, 1))
	if err := e.applyShardSnapshot(0, cloneShardData(replaced), (*OwnershipTable).admitOwner); err != nil {
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
	profiles := make([]*profile.Profile, len(u.Users))
	for i, usr := range u.Users {
		if profiles[i], err = u.BuildProfile(usr); err != nil {
			b.Fatal(err)
		}
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
