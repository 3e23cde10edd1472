package recommend

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"agentrec/internal/kvstore"
	"agentrec/internal/profile"
	"agentrec/internal/workload"
)

// Replication tests: a cluster of engines with per-shard ownership,
// owner-routed writes, and journal-tail replication must converge every
// replica to the owner's state — answer-identical through communityEqual,
// and byte-identical at the durable layer through walSnapshot.

// replCluster is n in-process engines wired exactly like
// platform.Config{ReplicateEngines: true}: shard s is owned by engine
// s%n, writes go through routers, every engine tails the others.
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

func sumRecords(st ReplicationStats) (n uint64) {
	for _, s := range st.Shards {
		n += s.Records
	}
	return n
}

func sumSnapshots(st ReplicationStats) (n uint64) {
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
// live state — including under shard spilling, where replicas apply into
// sometimes-spilled shards.
func TestReplicatedWALByteIdentical(t *testing.T) {
	for _, spill := range []bool{false, true} {
		name := "resident"
		if spill {
			name = "spilling"
		}
		t.Run(name, func(t *testing.T) {
			u, profiles := soakUniverse(t)
			dirs := []string{t.TempDir(), t.TempDir()}
			c := newReplCluster(t, u, 2, func(i int) []Option {
				opts := []Option{WithPersistence(dirs[i])}
				if spill {
					opts = append(opts, WithMaxResidentShards(2))
				}
				return opts
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
