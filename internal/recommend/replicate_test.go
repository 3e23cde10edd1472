package recommend

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"agentrec/internal/kvstore"
	"agentrec/internal/ops"
	"agentrec/internal/profile"
	"agentrec/internal/workload"
)

// Replication tests: a cluster of engines with per-shard ownership,
// owner-routed writes, and journal-tail replication must converge every
// replica to the owner's state — answer-identical through communityEqual,
// and byte-identical at the durable layer through walSnapshot.

// replCluster is n in-process engines wired like an n-server
// platform.Platform: shard s is owned by engine s%n, writes go through
// routers, every engine tails the others.
type replCluster struct {
	engines []*Engine
	routers []*Router
	repls   []*Replicator
}

func newReplCluster(t *testing.T, u *workload.Universe, n int, optsFor func(i int) []Option) *replCluster {
	t.Helper()
	c := &replCluster{}
	for i := 0; i < n; i++ {
		opts := append([]Option{WithJournalFeed(0), WithNeighbors(8), WithShards(8)}, optsFor(i)...)
		e, err := Open(u.Catalog, opts...)
		if err != nil {
			t.Fatal(err)
		}
		c.engines = append(c.engines, e)
	}
	writers := make([]Writer, n)
	peers := make([]Peer, n)
	for i, e := range c.engines {
		writers[i] = e
		peers[i] = LocalPeer{Engine: e}
	}
	for i, e := range c.engines {
		router, err := NewRouter(e, i, writers)
		if err != nil {
			t.Fatal(err)
		}
		c.routers = append(c.routers, router)
		r, err := NewReplicator(e, i, peers)
		if err != nil {
			t.Fatal(err)
		}
		c.repls = append(c.repls, r)
	}
	t.Cleanup(func() { c.close(t) })
	return c
}

func (c *replCluster) close(t *testing.T) {
	for _, r := range c.repls {
		r.Close()
	}
	for _, e := range c.engines {
		e.Close()
	}
}

// seed installs the universe through server 0's router, exactly as a
// seeded multi-server platform would.
func (c *replCluster) seed(t *testing.T, u *workload.Universe, profiles []*profile.Profile) {
	t.Helper()
	if err := c.routers[0].SetProfiles(profiles); err != nil {
		t.Fatal(err)
	}
	for user, pids := range u.Purchases() {
		for _, pid := range pids {
			if err := c.routers[0].RecordPurchase(user, pid); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// sync runs one deterministic catch-up pass on every replicator.
func (c *replCluster) sync(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, r := range c.repls {
		if err := r.Sync(ctx); err != nil {
			t.Fatalf("replicator %d: %v", i, err)
		}
	}
}

// walSnapshot reopens the community WAL under dir and serializes its live
// state in the kvstore's canonical sorted order.
func walSnapshot(t *testing.T, dir string) []byte {
	t.Helper()
	store, err := kvstore.Open(filepath.Join(dir, CommunityWAL))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var buf bytes.Buffer
	if err := store.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// compactedWAL compacts dir's community journal and returns the raw log
// file bytes.
func compactedWAL(t *testing.T, dir string) []byte {
	t.Helper()
	path := filepath.Join(dir, CommunityWAL)
	store, err := kvstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestWriteRoutingOwnsShards pins the ownership map: a routed write lands
// on exactly the owner, and before any replication each engine holds only
// the consumers whose shards it owns.
func TestWriteRoutingOwnsShards(t *testing.T) {
	u, profiles := soakUniverse(t)
	c := newReplCluster(t, u, 3, func(int) []Option { return nil })
	if err := c.routers[1].SetProfiles(profiles); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for i, e := range c.engines {
		for _, user := range e.Users() {
			if prev, dup := seen[user]; dup {
				t.Fatalf("user %s on engines %d and %d before replication", user, prev, i)
			}
			seen[user] = i
			if owner := OwnerOf(e.ShardOf(user), len(c.engines)); owner != i {
				t.Fatalf("user %s landed on engine %d, owner is %d", user, i, owner)
			}
		}
	}
	if len(seen) != len(profiles) {
		t.Fatalf("routed installs reached %d consumers, want %d", len(seen), len(profiles))
	}
}

// TestFollowerCatchUpIdentical is the acceptance gate: after journal
// catch-up every server answers Recommend byte-identically to a
// single-engine reference over the same community.
func TestFollowerCatchUpIdentical(t *testing.T) {
	u, profiles := soakUniverse(t)
	ref := loadEngine(u, profiles, WithNeighbors(8), WithShards(8))
	c := newReplCluster(t, u, 3, func(int) []Option { return nil })
	c.seed(t, u, profiles)
	c.sync(t)
	for i, e := range c.engines {
		t.Run(fmt.Sprintf("server-%d", i), func(t *testing.T) {
			communityEqual(t, ref, e)
		})
	}
	for i, r := range c.repls {
		st := r.Stats()
		if lag := st.Lag(); lag != 0 {
			t.Fatalf("replicator %d lag = %d after sync, want 0", i, lag)
		}
		if len(st.Shards) == 0 {
			t.Fatalf("replicator %d follows no shards", i)
		}
		for _, sh := range st.Shards {
			if sh.LastError != "" {
				t.Fatalf("replicator %d shard %d: %s", i, sh.Shard, sh.LastError)
			}
		}
	}
}

// TestLiveTailAfterCatchUp verifies the incremental path: once caught up,
// further writes replicate as journal records, not snapshots.
func TestLiveTailAfterCatchUp(t *testing.T) {
	u, profiles := soakUniverse(t)
	c := newReplCluster(t, u, 2, func(int) []Option { return nil })
	if err := c.routers[0].SetProfiles(profiles[:len(profiles)/2]); err != nil {
		t.Fatal(err)
	}
	c.sync(t)
	before := c.repls[1].Stats()

	c.seed(t, u, profiles) // the rest (plus overwrites) and the purchases
	c.sync(t)
	after := c.repls[1].Stats()
	if afterRecords, beforeRecords := sumRecords(after), sumRecords(before); afterRecords <= beforeRecords {
		t.Fatalf("journal records applied did not grow: %d -> %d", beforeRecords, afterRecords)
	}
	if sumSnapshots(after) != sumSnapshots(before) {
		t.Fatalf("live tail fell back to snapshot: %d -> %d catch-ups",
			sumSnapshots(before), sumSnapshots(after))
	}
	ref := loadEngine(u, profiles, WithNeighbors(8), WithShards(8))
	communityEqual(t, ref, c.engines[1])
}

func sumRecords(st ops.ReplicationSnapshot) (n uint64) {
	for _, s := range st.Shards {
		n += s.Records
	}
	return n
}

func sumSnapshots(st ops.ReplicationSnapshot) (n uint64) {
	for _, s := range st.Shards {
		n += s.Snapshots
	}
	return n
}

// TestPrunedTailFallsBackToSnapshot: a feed retaining almost nothing
// forces snapshot catch-up, which must converge all the same.
func TestPrunedTailFallsBackToSnapshot(t *testing.T) {
	u, profiles := soakUniverse(t)
	c := newReplCluster(t, u, 2, func(int) []Option { return []Option{WithJournalFeed(2)} })
	c.seed(t, u, profiles)
	c.sync(t)
	// Far more writes than the 2-record tails retain: re-install every
	// profile one at a time (state-idempotent, so the reference engine
	// below still matches).
	for _, p := range profiles {
		if err := c.routers[0].SetProfile(p); err != nil {
			t.Fatal(err)
		}
	}
	c.sync(t)
	st := c.repls[1].Stats()
	if sumSnapshots(st) == 0 {
		t.Fatal("expected at least one snapshot catch-up with a 2-record tail")
	}
	ref := loadEngine(u, profiles, WithNeighbors(8), WithShards(8))
	communityEqual(t, ref, c.engines[0])
	communityEqual(t, ref, c.engines[1])
}

// TestReplicatedWALByteIdentical is the durable half of the acceptance
// gate: after catch-up, every server's community WAL holds byte-identical
// live state.
func TestReplicatedWALByteIdentical(t *testing.T) {
	t.Run("resident", func(t *testing.T) {
		u, profiles := soakUniverse(t)
		dirs := []string{t.TempDir(), t.TempDir()}
		c := newReplCluster(t, u, 2, func(i int) []Option {
			return []Option{WithPersistence(dirs[i])}
		})
		c.seed(t, u, profiles)
		c.sync(t)
		ref := loadEngine(u, profiles, WithNeighbors(8), WithShards(8))
		communityEqual(t, ref, c.engines[0])
		communityEqual(t, ref, c.engines[1])
		for _, e := range c.engines {
			if err := e.Err(); err != nil {
				t.Fatal(err)
			}
		}
		c.close(t)
		snap0, snap1 := walSnapshot(t, dirs[0]), walSnapshot(t, dirs[1])
		if len(snap0) == 0 {
			t.Fatal("empty WAL snapshot")
		}
		if !bytes.Equal(snap0, snap1) {
			t.Fatalf("WAL live states differ: %d vs %d bytes", len(snap0), len(snap1))
		}
		// Stronger than live-state equality: compacting both journals
		// must leave byte-identical log FILES — the sorted (bucket, key)
		// rewrite erases each replica's distinct write history.
		raws := make([][]byte, len(dirs))
		for i, dir := range dirs {
			raws[i] = compactedWAL(t, dir)
		}
		if len(raws[0]) == 0 {
			t.Fatal("empty compacted WAL")
		}
		if !bytes.Equal(raws[0], raws[1]) {
			t.Fatalf("compacted WALs differ: %d vs %d bytes", len(raws[0]), len(raws[1]))
		}
	})
}

// TestFollowerRestartCatchesUp: a restarted follower (fresh cursor, stale
// durable replica) converges again via snapshot catch-up over its existing
// durable state.
func TestFollowerRestartCatchesUp(t *testing.T) {
	u, profiles := soakUniverse(t)
	dir := t.TempDir()
	c := newReplCluster(t, u, 2, func(i int) []Option {
		if i == 1 {
			return []Option{WithPersistence(dir)}
		}
		return nil
	})
	if err := c.routers[0].SetProfiles(profiles[:len(profiles)/2]); err != nil {
		t.Fatal(err)
	}
	c.sync(t)

	// Restart the follower: close its engine and replicator, reopen on the
	// same state dir, and replicate with a brand-new cursor.
	c.repls[1].Close()
	if err := c.engines[1].Close(); err != nil {
		t.Fatal(err)
	}
	e1, err := Open(u.Catalog, WithJournalFeed(0), WithNeighbors(8), WithShards(8), WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	c.engines[1] = e1
	r1, err := NewReplicator(e1, 1, []Peer{LocalPeer{Engine: c.engines[0]}, nil})
	if err != nil {
		t.Fatal(err)
	}
	c.repls[1] = r1

	// Writes that arrived after the restart, through a router rebuilt over
	// the live engines, must replicate on top of the stale durable replica.
	router0, err := NewRouter(c.engines[0], 0, []Writer{nil, e1})
	if err != nil {
		t.Fatal(err)
	}
	if err := router0.SetProfiles(profiles); err != nil {
		t.Fatal(err)
	}
	for user, pids := range u.Purchases() {
		for _, pid := range pids {
			if err := router0.RecordPurchase(user, pid); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r1.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	ref := loadEngine(u, profiles, WithNeighbors(8), WithShards(8))
	communityEqual(t, ref, e1)
}

// TestReplicatorShardCountMismatch: a follower with a different shard
// count must refuse to apply rather than mis-bin consumers.
func TestReplicatorShardCountMismatch(t *testing.T) {
	u, _ := soakUniverse(t)
	owner, err := Open(u.Catalog, WithJournalFeed(0), WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	follower, err := Open(u.Catalog, WithJournalFeed(0), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplicator(follower, 1, []Peer{LocalPeer{Engine: owner}, nil})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.Sync(ctx); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("Sync with mismatched shard counts = %v, want ErrShardMismatch", err)
	}
}

// followerOfOne returns an owner engine (server 0 of 2) holding profiles on
// its single shard, and a cold follower engine (server 1) for it.
func followerOfOne(t *testing.T, u *workload.Universe, profiles []*profile.Profile) (owner, follower *Engine) {
	t.Helper()
	owner, err := Open(u.Catalog, WithJournalFeed(0), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { owner.Close() })
	if err := owner.SetProfiles(profiles); err != nil {
		t.Fatal(err)
	}
	for user, pids := range u.Purchases() {
		if err := owner.RecordPurchase(user, pids[0]); err != nil {
			t.Fatal(err)
		}
	}
	follower, err = Open(u.Catalog, WithJournalFeed(0), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { follower.Close() })
	return owner, follower
}

// TestInProcessFollowerPages: an in-process follower catches up through the
// same paged transfer a TCP one does — under a small LocalPeer.PageBytes a
// shard many pages long arrives as one wholesale install over many pages.
func TestInProcessFollowerPages(t *testing.T) {
	u, profiles := soakUniverse(t)
	owner, follower := followerOfOne(t, u, profiles)
	r, err := NewReplicator(follower, 1, []Peer{LocalPeer{Engine: owner, PageBytes: 1024}, nil})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := r.Stats().Shards[0]
	if st.Snapshots != 1 || st.Pages < 2 || st.Records != 0 || st.LagRecords != 0 {
		t.Fatalf("cold in-process catch-up = %+v, want one snapshot over several pages and no lag", st)
	}
	communityEqual(t, owner, follower)
}

// tamperPeer serves owner's pages under a 1 KiB budget and swaps the last
// profile of the first continuation page for bad, counting the page
// requests that still follow it.
type tamperPeer struct {
	LocalPeer
	bad      []byte
	tampered bool
	after    int
}

func (p *tamperPeer) SnapshotPage(ctx context.Context, shard int, epoch, seq uint64, token string) (SnapshotPage, error) {
	pg, err := p.LocalPeer.SnapshotPage(ctx, shard, epoch, seq, token)
	if p.tampered {
		p.after++
	} else if err == nil && token != "" && len(pg.Profiles) > 0 {
		pg.Profiles[len(pg.Profiles)-1] = p.bad
		p.tampered = true
	}
	return pg, err
}

// TestBadPageFailsPullOnArrival: pages are decoded and shard-checked as
// they arrive, so a page carrying an undecodable profile, or one that
// hashes to another shard, ends the pull right there — no later page is
// requested, and the follower's shard, WAL and index are untouched.
func TestBadPageFailsPullOnArrival(t *testing.T) {
	u, profiles := soakUniverse(t)
	stranger, err := profile.NewProfile("stranger").Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		bad     []byte
		wantErr error
	}{
		"undecodable":   {bad: []byte("{not a profile")},
		"foreign-shard": {bad: stranger, wantErr: ErrShardMismatch},
	} {
		t.Run(name, func(t *testing.T) {
			// Two shards, so that a consumer can hash to the other one; the
			// follower follows shard 0 only (server 1 owns shard 1).
			owner, err := Open(u.Catalog, WithJournalFeed(0), WithShards(2))
			if err != nil {
				t.Fatal(err)
			}
			defer owner.Close()
			if err := owner.SetProfiles(profiles); err != nil {
				t.Fatal(err)
			}
			if tc.wantErr != nil && owner.ShardOf("stranger") == 0 {
				t.Fatal("the stranger hashes to the followed shard; pick another id")
			}
			follower, err := Open(u.Catalog, WithJournalFeed(0), WithShards(2), WithPersistence(t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
			defer follower.Close()
			clean, err := NewReplicator(follower, 1, []Peer{LocalPeer{Engine: owner}, nil})
			if err != nil {
				t.Fatal(err)
			}
			if err := clean.Sync(context.Background()); err != nil {
				t.Fatal(err)
			}
			users, before := follower.Users(), follower.Stats()
			if len(users) < 8 {
				t.Fatalf("follower holds %d consumers after the clean catch-up; universe too small", len(users))
			}

			// A fresh cursor pages the shard again, through the tampering peer.
			peer := &tamperPeer{LocalPeer: LocalPeer{Engine: owner, PageBytes: 1024}, bad: tc.bad}
			r, err := NewReplicator(follower, 1, []Peer{peer, nil})
			if err != nil {
				t.Fatal(err)
			}
			err = r.Sync(context.Background())
			if err == nil || !peer.tampered || (tc.wantErr != nil && !errors.Is(err, tc.wantErr)) {
				t.Fatalf("pull over a bad page = %v (tampered %v), want %v", err, peer.tampered, tc.wantErr)
			}
			if peer.after != 0 {
				t.Fatalf("%d more page(s) requested after the bad one; the pull must fail on arrival", peer.after)
			}
			if st := r.Stats().Shards[0]; st.LastError == "" || st.Snapshots != 0 {
				t.Fatalf("failed pull recorded as %+v, want an error and no snapshot", st)
			}
			after := follower.Stats()
			if after.JournalBytes != before.JournalBytes {
				t.Fatalf("failed pull wrote: journal bytes %d -> %d", before.JournalBytes, after.JournalBytes)
			}
			if got := follower.Users(); !reflect.DeepEqual(got, users) {
				t.Fatalf("failed pull changed the follower's consumers: %d -> %d", len(users), len(got))
			}
		})
	}
}

// promotingPeer answers tails from owner, but once armed it first advances
// table to next: the coordinator moves the shard while the pull is in
// flight.
type promotingPeer struct {
	LocalPeer
	table *OwnershipTable
	next  OwnershipMap
	armed bool
}

func (p *promotingPeer) JournalTail(ctx context.Context, shard int, epoch, since uint64) (TailResult, error) {
	tr, err := p.LocalPeer.JournalTail(ctx, shard, epoch, since)
	if p.armed {
		p.table.Advance(p.next)
	}
	return tr, err
}

// TestPullDropsReplyAfterPromotion: a pull that fetched from a server the
// table has since deposed — this server itself promoted, here — must drop
// the reply instead of installing the old owner's state over a shard it now
// owns (and may already have acked writes on). Both apply paths: the
// wholesale install of a cold follower, and the records of a live tail.
func TestPullDropsReplyAfterPromotion(t *testing.T) {
	u, profiles := soakUniverse(t)
	promoted := OwnershipMap{Epoch: 2, Assign: []int{1}}
	for _, live := range []bool{false, true} {
		name := "wholesale"
		if live {
			name = "records"
		}
		t.Run(name, func(t *testing.T) {
			owner, follower := followerOfOne(t, u, profiles)
			table := NewOwnershipTable(StaticOwnership(1, 2))
			peer := &promotingPeer{LocalPeer: LocalPeer{Engine: owner}, table: table, next: promoted}
			r, err := NewReplicator(follower, 1, []Peer{peer, nil}, PullWithOwnership(table))
			if err != nil {
				t.Fatal(err)
			}
			if live {
				if err := r.Sync(context.Background()); err != nil {
					t.Fatal(err)
				}
				if err := owner.SetProfile(profile.NewProfile("late-write")); err != nil {
					t.Fatal(err)
				}
			}
			users, before := follower.Users(), r.Stats().Shards[0]
			peer.armed = true
			if err := r.Sync(context.Background()); err == nil {
				t.Fatal("Sync applied a reply fetched from a server deposed mid-pull")
			}
			if got := follower.Users(); !reflect.DeepEqual(got, users) {
				t.Fatalf("deposed owner's reply changed the promoted shard: %d -> %d consumers", len(users), len(got))
			}
			st := r.Stats().Shards[0]
			if st.LastError == "" || st.AppliedSeq != before.AppliedSeq || st.Snapshots != before.Snapshots || st.Records != before.Records {
				t.Fatalf("dropped reply recorded as %+v (before %+v), want an error and an unmoved cursor", st, before)
			}
			// The next pass sees the shard as owned and stops following it.
			if err := r.Sync(context.Background()); err != nil || len(r.Stats().Shards) != 0 {
				t.Fatalf("pass after the promotion: %v, still following %d shard(s)", err, len(r.Stats().Shards))
			}
			// Handed back: promotion dropped the shard's whole follower
			// record, so the shard is followed again from an empty cursor.
			peer.armed = false
			table.Advance(OwnershipMap{Epoch: 3, Assign: []int{0}})
			if err := r.Sync(context.Background()); err != nil {
				t.Fatal(err)
			}
			if st := r.Stats().Shards[0]; st.Snapshots != 1 || st.Records != 0 || st.LastError != "" {
				t.Fatalf("shard followed again as %+v, want one paged catch-up from an empty cursor and no stale error", st)
			}
			communityEqual(t, owner, follower)
		})
	}
}

// strangerTailPeer answers tails from owner, with the third record of a
// reply swapped for one carrying bad while bad is set.
type strangerTailPeer struct {
	LocalPeer
	bad []byte
}

func (p *strangerTailPeer) JournalTail(ctx context.Context, shard int, epoch, since uint64) (TailResult, error) {
	tr, err := p.LocalPeer.JournalTail(ctx, shard, epoch, since)
	if p.bad != nil && len(tr.Records) >= 3 {
		tr.Records = append([]JournalRecord(nil), tr.Records...)
		tr.Records[2].Profiles = [][]byte{p.bad}
	}
	return tr, err
}

// TestAppliedSeqAdvancesWithCursor: the catch-up evidence a follower reports
// is its cursor. A pull that applied two records before a third failed
// reports the two — to Stats and to the coordinator (AppliedSeqs) — rather
// than its pre-pull position, and the next pull continues behind them.
func TestAppliedSeqAdvancesWithCursor(t *testing.T) {
	u, _ := soakUniverse(t)
	stranger, err := profile.NewProfile("stranger").Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Two shards; the follower (server 1) follows shard 0 only.
	owner, err := Open(u.Catalog, WithJournalFeed(0), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	if owner.ShardOf("stranger") == 0 {
		t.Fatal("the stranger hashes to the followed shard; pick another id")
	}
	follower, err := Open(u.Catalog, WithJournalFeed(0), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	peer := &strangerTailPeer{LocalPeer: LocalPeer{Engine: owner}, bad: stranger}
	r, err := NewReplicator(follower, 1, []Peer{peer, nil})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Sync(context.Background()); err != nil { // empty shard: cursor at (epoch, 0)
		t.Fatal(err)
	}
	for i, wrote := 0, 0; wrote < 3; i++ {
		if id := fmt.Sprintf("late-%d", i); owner.ShardOf(id) == 0 {
			if err := owner.SetProfile(profile.NewProfile(id)); err != nil {
				t.Fatal(err)
			}
			wrote++
		}
	}
	if err := r.Sync(context.Background()); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("Sync over a foreign third record = %v, want ErrShardMismatch", err)
	}
	st := r.Stats().Shards[0]
	if st.AppliedSeq != 2 || st.Records != 2 || st.LastError == "" || r.AppliedSeqs()[0] != 2 {
		t.Fatalf("after two of three records applied: %+v, AppliedSeqs %v; want applied_seq 2, records 2 and an error",
			st, r.AppliedSeqs())
	}
	peer.bad = nil
	if err := r.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats().Shards[0]; st.AppliedSeq != 3 || st.Records != 3 || st.Snapshots != 1 || st.LastError != "" {
		t.Fatalf("honest pull after the failure: %+v, want the third record tailed from cursor 2", st)
	}
	communityEqual(t, owner, follower)
}

// foreignEpochPeer answers tails from owner, but once armed it continues the
// follower's cursor under another feed epoch with a record of its own — what
// only a peer of another version, or a hostile one, can send now that an
// owner answers every cursor it cannot serve with the paged marker.
type foreignEpochPeer struct {
	LocalPeer
	armed bool
}

func (p *foreignEpochPeer) JournalTail(ctx context.Context, shard int, epoch, since uint64) (TailResult, error) {
	if !p.armed {
		return p.LocalPeer.JournalTail(ctx, shard, epoch, since)
	}
	return intruderTail(shard, epoch+2, since)
}

// intruderTail is a one-shard owner's tail under epoch that continues the
// cursor since with one record installing the consumer "intruder".
func intruderTail(shard int, epoch, since uint64) (TailResult, error) {
	intruder, err := profile.NewProfile("intruder").Marshal()
	rec := JournalRecord{Shard: shard, Seq: since + 1, Op: OpProfiles, Profiles: [][]byte{intruder}}
	return TailResult{Shards: 1, Epoch: epoch, Seq: since + 1, Head: since + 1, Records: []JournalRecord{rec}}, err
}

// zeroEpochPeer answers every tail under epoch 0 with a record continuing
// the cursor: for a follower that has never pulled, a tail that matches its
// zero cursor.
type zeroEpochPeer struct{ LocalPeer }

func (zeroEpochPeer) JournalTail(_ context.Context, shard int, _, since uint64) (TailResult, error) {
	return intruderTail(shard, 0, since)
}

// TestPullRefusesTailToCursorlessFollower: a follower that has never pulled
// holds the cursor (0, 0). No feed epoch is 0, so an owner answers that
// cursor Paged, and records under epoch 0 are refused like a foreign
// epoch's: nothing installed, nothing re-emitted on the follower's own feed,
// and the error kept.
func TestPullRefusesTailToCursorlessFollower(t *testing.T) {
	u, profiles := soakUniverse(t)
	owner, follower := followerOfOne(t, u, profiles)
	r, err := NewReplicator(follower, 1, []Peer{zeroEpochPeer{LocalPeer{Engine: owner}}, nil})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Sync(context.Background()); err == nil {
		t.Fatal("Sync accepted a tail under epoch 0")
	}
	if _, err := follower.Profile("intruder"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("epoch-0 record was applied (Profile error %v)", err)
	}
	if heads := follower.FeedHeads(); heads[0] != 0 {
		t.Fatalf("follower feed heads = %v after a refused tail, want [0]", heads)
	}
	if st := r.Stats().Shards[0]; st.LastError == "" || st.Records != 0 || st.AppliedSeq != 0 {
		t.Fatalf("refused reply recorded as %+v, want an error and nothing applied", st)
	}
}

// TestPullRefusesTailOfForeignEpoch: records served under an epoch other
// than the cursor's continue a history this replica never held. The pull
// must refuse them — not adopt the epoch and apply them onto stale state —
// and reset the cursor, so the next pull pages.
func TestPullRefusesTailOfForeignEpoch(t *testing.T) {
	u, profiles := soakUniverse(t)
	owner, follower := followerOfOne(t, u, profiles)
	peer := &foreignEpochPeer{LocalPeer: LocalPeer{Engine: owner}}
	r, err := NewReplicator(follower, 1, []Peer{peer, nil})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := r.Stats().Shards[0]
	peer.armed = true
	if err := r.Sync(context.Background()); err == nil {
		t.Fatal("Sync accepted a tail under a foreign feed epoch")
	}
	if _, err := follower.Profile("intruder"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("foreign-epoch record was applied (Profile error %v)", err)
	}
	if st := r.Stats().Shards[0]; st.LastError == "" || st.Epoch != before.Epoch || st.Records != before.Records {
		t.Fatalf("refused reply recorded as %+v (before %+v), want an error and the epoch kept", st, before)
	}
	peer.armed = false
	if err := r.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats().Shards[0]; st.Snapshots != before.Snapshots+1 || st.LastError != "" {
		t.Fatalf("pull after the refusal = %+v, want a paged catch-up from a reset cursor", st)
	}
	communityEqual(t, owner, follower)
}

// hungPeer is a peer that never answers: every request blocks until its
// context ends, like a TCP peer that accepted the connection and stalled.
type hungPeer struct{ entered chan struct{} }

func (p hungPeer) JournalTail(ctx context.Context, _ int, _, _ uint64) (TailResult, error) {
	select {
	case p.entered <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return TailResult{}, ctx.Err()
}

func (p hungPeer) SnapshotPage(ctx context.Context, _ int, _, _ uint64, _ string) (SnapshotPage, error) {
	<-ctx.Done()
	return SnapshotPage{}, ctx.Err()
}

// TestReplicatorCloseAbortsHungPull: Close must cancel the background
// loop's in-flight pull rather than wait out its 30 s timeout.
func TestReplicatorCloseAbortsHungPull(t *testing.T) {
	u, _ := soakUniverse(t)
	follower, err := Open(u.Catalog, WithJournalFeed(0), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	peer := hungPeer{entered: make(chan struct{}, 1)}
	r, err := NewReplicator(follower, 1, []Peer{peer, nil}, WithPullInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	select {
	case <-peer.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("background loop never pulled")
	}
	closed := make(chan struct{})
	start := time.Now()
	go func() {
		r.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatalf("Close still blocked behind a hung pull after %v", time.Since(start))
	}
}

// TestReplicationSoak hammers the routers from many goroutines while the
// background replicators tail on a tight interval — run under -race in CI
// — then quiesces and checks all servers converge to the same answers.
func TestReplicationSoak(t *testing.T) {
	u, profiles := soakUniverse(t)
	c := newReplCluster(t, u, 3, func(int) []Option { return nil })
	for _, r := range c.repls {
		// Not Start(): the ticker default is too coarse for a short test.
		rr := r
		go func() {
			for i := 0; i < 50; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				rr.Sync(ctx)
				cancel()
				time.Sleep(time.Millisecond)
			}
		}()
	}

	purch := u.Purchases()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 11))
			router := c.routers[w%len(c.routers)]
			for i := 0; i < 200; i++ {
				p := profiles[rng.IntN(len(profiles))]
				if i%3 == 0 {
					if pids := purch[p.UserID]; len(pids) > 0 {
						if err := router.RecordPurchase(p.UserID, pids[rng.IntN(len(pids))]); err != nil {
							t.Error(err)
							return
						}
					}
					continue
				}
				if err := router.SetProfile(p); err != nil {
					t.Error(err)
					return
				}
				// Concurrent reads against the local replica.
				if _, err := c.engines[w%len(c.engines)].Recommend(StrategyAuto, p.UserID, "", 5); err != nil && !errors.Is(err, ErrUnknownUser) {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	c.sync(t)
	communityEqual(t, c.engines[0], c.engines[1])
	communityEqual(t, c.engines[0], c.engines[2])
}
