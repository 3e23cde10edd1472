package recommend

// Automatic journal compaction tests: the manual-only path is unchanged,
// an auto-compacting engine keeps its WAL bounded by the policy ratio, and
// — the regression this exists for — a follower driven through repeated
// snapshot catch-ups plus sustained journal tailing no longer grows its
// WAL without bound, while still answering byte-identically.

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"

	"agentrec/internal/kvstore"
	"agentrec/internal/ops"
)

// withinPolicy reports whether the engine's journal satisfies
// journal <= ratio x live.
func withinPolicy(st ops.EngineSnapshot, ratio float64) bool {
	return float64(st.JournalBytes) <= ratio*float64(st.LiveBytes)
}

func TestManualCompactionOnlyWithoutPolicy(t *testing.T) {
	u, profiles := soakUniverse(t)
	dir := t.TempDir()
	e := loadEngineErr(t, u, profiles, WithPersistence(dir), WithNeighbors(8))
	defer e.Close()
	// Overwrite the whole community a few times: append-only journaling
	// must grow the WAL well past the live state, and without
	// WithAutoCompaction nothing may compact behind the caller's back.
	for round := 0; round < 3; round++ {
		for _, p := range profiles {
			if err := e.SetProfile(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := e.Stats()
	if st.Compactions != 0 {
		t.Fatalf("engine without a policy compacted %d times", st.Compactions)
	}
	if st.JournalBytes <= st.LiveBytes {
		t.Fatalf("journal %d not larger than live %d after overwrites", st.JournalBytes, st.LiveBytes)
	}
	if err := e.CompactState(); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Compactions != 1 {
		t.Errorf("Compactions = %d after manual CompactState, want 1", st.Compactions)
	}
	if st.LastCompactionMs <= 0 {
		t.Errorf("LastCompactionMs = %v, want > 0", st.LastCompactionMs)
	}
	if st.JournalBytes != st.LiveBytes {
		t.Errorf("quiet engine after compaction: journal %d != live %d", st.JournalBytes, st.LiveBytes)
	}

	// The compacted journal still recovers the full community.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	mem := loadEngine(u, profiles, WithNeighbors(8))
	e2, err := Open(u.Catalog, WithPersistence(dir), WithNeighbors(8))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	communityEqual(t, mem, e2)
}

func TestAutoCompactionBoundsWAL(t *testing.T) {
	u, profiles := soakUniverse(t)
	dir := t.TempDir()
	const ratio = 4
	e := loadEngineErr(t, u, profiles, WithPersistence(dir), WithNeighbors(8),
		WithAutoCompaction(CompactionPolicy{Ratio: ratio, MinBytes: 1, CheckEvery: 1}))
	defer e.Close()
	deadline := time.Now().Add(15 * time.Second)
	for {
		// Keep overwriting: under sustained writes the policy must hold the
		// journal at or under ratio x live (compaction is asynchronous, so
		// observe across writes rather than after a single burst).
		for _, p := range profiles[:8] {
			if err := e.SetProfile(p); err != nil {
				t.Fatal(err)
			}
		}
		st := e.Stats()
		if st.Compactions >= 2 && withinPolicy(st, ratio) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal never converged under policy: %+v", st)
		}
	}
	if err := e.Err(); err != nil {
		t.Fatalf("sticky error after auto compaction: %v", err)
	}
	// Answers are unaffected by background compactions.
	mem := loadEngine(u, profiles, WithNeighbors(8))
	communityEqual(t, mem, e)
}

// TestFollowerAutoCompactionBoundsWAL is the acceptance regression: two
// replicated servers, both persistent with a Ratio-4 policy, driven
// through >= 3 snapshot catch-ups per follower shard (tiny feed retention
// forces the wholesale SaveShard path) plus sustained live tailing. Every
// server's WAL must end bounded by the policy, and the replicas must still
// hold byte-identical live state and answer like an unreplicated
// reference.
func TestFollowerAutoCompactionBoundsWAL(t *testing.T) {
	u, profiles := soakUniverse(t)
	const ratio = 4
	const servers = 2
	dirs := []string{t.TempDir(), t.TempDir()}
	engines := make([]*Engine, servers)
	for i := range engines {
		e, err := Open(u.Catalog,
			// Retain only 4 journal records per shard: every burst below
			// overflows the tail, so followers catch up by snapshot.
			WithJournalFeed(4), WithNeighbors(8), WithShards(8),
			WithPersistence(dirs[i]),
			WithAutoCompaction(CompactionPolicy{Ratio: ratio, MinBytes: 1, CheckEvery: 1}))
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()
	writers := make([]Writer, servers)
	peers := make([]Peer, servers)
	for i, e := range engines {
		writers[i] = e
		peers[i] = LocalPeer{Engine: e}
	}
	router, err := NewRouter(engines[0], 0, writers)
	if err != nil {
		t.Fatal(err)
	}
	repls := make([]*Replicator, servers)
	for i, e := range engines {
		if repls[i], err = NewReplicator(e, i, peers); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sync := func() {
		t.Helper()
		for _, r := range repls {
			if err := r.Sync(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Three full-community overwrite bursts, each synced: every burst puts
	// ~15 records into each shard's 4-record tail, so each sync is a
	// snapshot catch-up (a wholesale SaveShard rewrite on the follower).
	for round := 0; round < 3; round++ {
		if err := router.SetProfiles(profiles); err != nil {
			t.Fatal(err)
		}
		sync()
	}
	for user, pids := range u.Purchases() {
		for _, pid := range pids {
			if err := router.RecordPurchase(user, pid); err != nil {
				t.Fatal(err)
			}
		}
	}
	sync()
	for i, r := range repls {
		var snaps, recs uint64
		for _, sh := range r.Stats().Shards {
			snaps += sh.Snapshots
			recs += sh.Records
		}
		if snaps < 3 {
			t.Fatalf("server %d saw %d snapshot catch-ups, want >= 3", i, snaps)
		}
		if recs == 0 {
			t.Fatalf("server %d applied no live-tail records", i)
		}
	}

	// Sustained live tailing: single-record writes synced one at a time
	// ride the retained tail instead of snapshots, and give the
	// asynchronous compactions write traffic to converge under.
	deadline := time.Now().Add(20 * time.Second)
	for {
		for _, p := range profiles[:2] {
			if err := router.SetProfile(p); err != nil {
				t.Fatal(err)
			}
		}
		sync()
		done := true
		for _, e := range engines {
			st := e.Stats()
			if st.Compactions == 0 || !withinPolicy(st, ratio) {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			for i, e := range engines {
				t.Logf("server %d stats: %+v", i, e.Stats())
			}
			t.Fatal("follower WALs never converged under the Ratio-4 policy")
		}
	}

	// Replicas still answer byte-identically after compactions ran during
	// active replication.
	ref := loadEngine(u, profiles, WithNeighbors(8), WithShards(8))
	for _, e := range engines {
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		communityEqual(t, ref, e)
	}
	for _, e := range engines {
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	snap0, snap1 := walSnapshot(t, dirs[0]), walSnapshot(t, dirs[1])
	if len(snap0) == 0 {
		t.Fatal("empty WAL snapshot")
	}
	if !bytes.Equal(snap0, snap1) {
		t.Fatalf("WAL live states differ after compaction: %d vs %d bytes", len(snap0), len(snap1))
	}
	// And the final on-disk WALs obey the acceptance bound, re-measured
	// from a fresh open rather than the engines' own accounting.
	for i, dir := range dirs {
		store, err := kvstore.Open(filepath.Join(dir, CommunityWAL))
		if err != nil {
			t.Fatal(err)
		}
		st, err := store.SizeStats()
		store.Close()
		if err != nil {
			t.Fatal(err)
		}
		if float64(st.JournalBytes) > ratio*float64(st.LiveBytes) {
			t.Errorf("server %d final WAL %d bytes > %d x live %d bytes",
				i, st.JournalBytes, ratio, st.LiveBytes)
		}
	}
}

// TestAutoCompactionRatioOneTerminates: a ratio at or below 1 means
// "compact whenever the journal exceeds the live state", not "compact in
// an infinite loop" — a freshly compacted journal (journal == live) must
// never re-fire the policy.
func TestAutoCompactionRatioOneTerminates(t *testing.T) {
	u, profiles := soakUniverse(t)
	e := loadEngineErr(t, u, profiles[:20], WithPersistence(t.TempDir()), WithNeighbors(8),
		WithAutoCompaction(CompactionPolicy{Ratio: 1, MinBytes: 1, CheckEvery: 1}))
	defer e.Close()
	for i := 0; i < 30; i++ {
		if err := e.SetProfile(profiles[0]); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ratio-1 policy never compacted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Quiesce: with no further writes the compaction count must stabilize
	// almost immediately. A runaway re-evaluation loop spins hundreds of
	// rewrites in this window.
	time.Sleep(50 * time.Millisecond)
	before := e.Stats().Compactions
	time.Sleep(200 * time.Millisecond)
	after := e.Stats().Compactions
	if after > before+1 {
		t.Fatalf("compaction loop did not terminate: %d -> %d in 200ms", before, after)
	}
}
