package replnet

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"agentrec/internal/aglet"
	"agentrec/internal/atp"
	"agentrec/internal/kvstore"
	"agentrec/internal/ops"
	"agentrec/internal/profile"
	"agentrec/internal/recommend"
	"agentrec/internal/security"
)

// End-to-end tests of the paged snapshot catch-up over real TCP: a cold
// follower bootstrapping a shard whose whole-shard snapshot outgrows the
// (test-shrunken) frame budget, a transfer that completes at its pin across
// a mid-transfer owner write, and the poison-record fallback — one journal
// record too big for any frame must not wedge replication forever.

// fatProfile builds a profile whose marshaled size scales with terms, so
// tests can push shard snapshots (or a single journal record) past a
// shrunken frame budget.
func fatProfile(userID string, terms int) *profile.Profile {
	p := profile.NewProfile(userID)
	ev := profile.Evidence{
		Category: "laptop", Terms: make(map[string]float64, terms),
		// A real behaviour so the evidence carries weight: zero-quality
		// evidence yields empty summaries, which no category lists.
		Behaviour: profile.BehaviourBuy,
	}
	for i := 0; i < terms; i++ {
		ev.Terms[fmt.Sprintf("term-%s-%04d", userID, i)] = float64(i%7) + 0.5
	}
	if err := p.Observe(ev); err != nil {
		panic(err)
	}
	return p
}

// ownedUsers returns n consumer ids that all hash to shards owned by
// server `owner` of `servers` — seeding only these makes a pure follower's
// replicated half the entire populated community.
func ownedUsers(e *recommend.Engine, owner, servers, n int) []string {
	out := make([]string, 0, n)
	for i := 0; len(out) < n; i++ {
		u := fmt.Sprintf("user-%04d", i)
		if recommend.OwnerOf(e.ShardOf(u), servers) == owner {
			out = append(out, u)
		}
	}
	return out
}

// ownerAndColdFollower stands up one ATP-served owner engine (server 0 of
// 2) and returns a constructor for cold followers tailing it as server 1.
type pagedFixture struct {
	t      testing.TB
	client *atp.Client
	owner  *recommend.Engine
	srv    *atp.Server
}

func newPagedFixture(t testing.TB, ownerOpts ...recommend.Option) *pagedFixture {
	signer := security.NewSigner([]byte("replnet-test-key"))
	client := atp.NewClient(signer)
	cat := catalogWithP1(t)
	opts := append([]recommend.Option{recommend.WithJournalFeed(0), recommend.WithShards(8)}, ownerOpts...)
	owner, err := recommend.Open(cat, opts...)
	if err != nil {
		t.Fatal(err)
	}
	host := aglet.NewHost("paged-owner", aglet.NewRegistry(), aglet.WithTransport(client))
	srv, err := atp.Serve(host, signer, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetJournalHandler(Handler(owner, 0, 2))
	t.Cleanup(func() { srv.Close(); host.Close(); owner.Close() })
	return &pagedFixture{t: t, client: client, owner: owner, srv: srv}
}

// seed installs n fat consumers (plus a purchase each) directly on the
// owner, all on server-0-owned shards.
func (f *pagedFixture) seed(n, terms int) []string {
	users := ownedUsers(f.owner, 0, 2, n)
	for _, u := range users {
		if err := f.owner.SetProfile(fatProfile(u, terms)); err != nil {
			f.t.Fatal(err)
		}
		if err := f.owner.RecordPurchase(u, "p1"); err != nil {
			f.t.Fatal(err)
		}
	}
	return users
}

// follower opens a cold engine (fresh state) replicating from the owner
// through peer (defaults to a plain TCP Peer).
func (f *pagedFixture) follower(peer recommend.Peer, opts ...recommend.Option) (*recommend.Engine, *recommend.Replicator) {
	all := append([]recommend.Option{recommend.WithJournalFeed(0), recommend.WithShards(8)}, opts...)
	e, err := recommend.Open(catalogWithP1(f.t), all...)
	if err != nil {
		f.t.Fatal(err)
	}
	if peer == nil {
		peer = NewPeer(f.client, f.srv.Addr())
	}
	repl, err := recommend.NewReplicator(e, 1, []recommend.Peer{peer, nil})
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { repl.Close(); e.Close() })
	return e, repl
}

// walSnapshot reopens the community WAL under dir and serializes its live
// state in the kvstore's canonical sorted order.
func walSnapshot(t *testing.T, dir string) []byte {
	t.Helper()
	store, err := kvstore.Open(filepath.Join(dir, recommend.CommunityWAL))
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

// TestColdFollowerPagedBootstrapByteIdentical is the acceptance gate: a
// cold follower with an empty state dir bootstraps shards whose encoded
// snapshots exceed the frame budget over real TCP, ending byte-identical
// to the owner's WAL live state.
func TestColdFollowerPagedBootstrapByteIdentical(t *testing.T) {
	t.Run("resident", func(t *testing.T) {
		old := maxTailBytes
		maxTailBytes = 2048
		t.Cleanup(func() { maxTailBytes = old })

		ownerDir, followerDir := t.TempDir(), t.TempDir()
		f := newPagedFixture(t, recommend.WithPersistence(ownerDir))
		users := f.seed(48, 24)
		follower, repl := f.follower(nil, recommend.WithPersistence(followerDir))

		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := repl.Sync(ctx); err != nil {
			t.Fatalf("cold paged bootstrap: %v", err)
		}
		st := repl.Stats()
		var snaps, pages uint64
		for _, sh := range st.Shards {
			snaps += sh.Snapshots
			pages += sh.Pages
			if sh.LastError != "" {
				t.Fatalf("shard %d: %s", sh.Shard, sh.LastError)
			}
		}
		if snaps == 0 || pages <= snaps {
			t.Fatalf("bootstrap stats: %d snapshots over %d pages; want multi-page transfers", snaps, pages)
		}
		if lag := st.Lag(); lag != 0 {
			t.Fatalf("lag = %d after bootstrap", lag)
		}
		if got, want := follower.Users(), f.owner.Users(); !reflect.DeepEqual(got, want) || len(got) != len(users) {
			t.Fatalf("user sets differ: %d vs %d (want %d)", len(got), len(want), len(users))
		}
		for _, u := range users[:8] {
			r0, err0 := f.owner.Recommend(recommend.StrategyTopSeller, u, "", 5)
			r1, err1 := follower.Recommend(recommend.StrategyTopSeller, u, "", 5)
			if err0 != nil || err1 != nil {
				t.Fatalf("recommend errors: %v / %v", err0, err1)
			}
			if !reflect.DeepEqual(r0, r1) {
				t.Fatalf("answers for %s differ: %v vs %v", u, r0, r1)
			}
		}
		for _, e := range []*recommend.Engine{f.owner, follower} {
			if err := e.Err(); err != nil {
				t.Fatal(err)
			}
		}

		// A second, cursor-less replicator re-pages the same snapshots,
		// which must leave the follower's community as it was.
		repl2, err := recommend.NewReplicator(follower, 1, []recommend.Peer{NewPeer(f.client, f.srv.Addr()), nil})
		if err != nil {
			t.Fatal(err)
		}
		if err := repl2.Sync(ctx); err != nil {
			t.Fatalf("identical re-bootstrap: %v", err)
		}
		repl2.Close()
		if got, want := follower.Users(), f.owner.Users(); !reflect.DeepEqual(got, want) {
			t.Fatalf("identical re-bootstrap changed the follower's users: %d vs %d", len(got), len(want))
		}

		// Close both engines and compare durable live state byte for byte.
		repl.Close()
		if err := follower.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.owner.Close(); err != nil {
			t.Fatal(err)
		}
		s0, s1 := walSnapshot(t, ownerDir), walSnapshot(t, followerDir)
		if len(s0) == 0 {
			t.Fatal("empty owner WAL snapshot")
		}
		if !bytes.Equal(s0, s1) {
			t.Fatalf("WAL live states differ: %d vs %d bytes", len(s0), len(s1))
		}
	})
}

// interceptPeer delegates to a real TCP peer but runs onFirstPage once,
// after the first page of a multi-page transfer is served — between page
// requests, where a concurrent owner write moves the shard past the pin —
// and, from then on, onTail before every tail it is asked for.
type interceptPeer struct {
	recommend.Peer
	mu          sync.Mutex
	fired       bool
	onFirstPage func(shard int)
	onTail      func(shard int)
}

func (p *interceptPeer) JournalTail(ctx context.Context, shard int, epoch, since uint64) (recommend.TailResult, error) {
	p.mu.Lock()
	fired := p.fired
	p.mu.Unlock()
	if fired {
		p.onTail(shard)
	}
	return p.Peer.JournalTail(ctx, shard, epoch, since)
}

func (p *interceptPeer) SnapshotPage(ctx context.Context, shard int, epoch, seq uint64, token string) (recommend.SnapshotPage, error) {
	pg, err := p.Peer.SnapshotPage(ctx, shard, epoch, seq, token)
	if err == nil && pg.Next != "" {
		p.mu.Lock()
		fire := !p.fired
		p.fired = true
		p.mu.Unlock()
		if fire {
			p.onFirstPage(shard)
		}
	}
	return pg, err
}

// TestPagedCatchUpCompletesAcrossMidTransferWrite: an owner write between
// two page requests leaves the transfer at its pin. It completes at the pin
// its first page took, without the write, and the same pull tails the write
// as a record.
func TestPagedCatchUpCompletesAcrossMidTransferWrite(t *testing.T) {
	old := maxTailBytes
	maxTailBytes = 2048
	t.Cleanup(func() { maxTailBytes = old })

	f := newPagedFixture(t)
	f.seed(48, 24)

	var (
		injected   string
		injectedTo int
		heldAtTail []bool // per tail of the shard after the write: whether the follower held it
		follower   *recommend.Engine
		repl       *recommend.Replicator
	)
	peer := &interceptPeer{Peer: NewPeer(f.client, f.srv.Addr()), onFirstPage: func(shard int) {
		for i := 0; ; i++ {
			u := fmt.Sprintf("mid-write-%d", i)
			if f.owner.ShardOf(u) == shard {
				injected, injectedTo = u, shard
				if err := f.owner.SetProfile(fatProfile(u, 24)); err != nil {
					t.Error(err)
				}
				return
			}
		}
	}, onTail: func(shard int) {
		if shard == injectedTo {
			_, err := follower.Profile(injected)
			heldAtTail = append(heldAtTail, err == nil)
		}
	}}
	follower, repl = f.follower(peer)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := repl.Sync(ctx); err != nil {
		t.Fatalf("paged bootstrap with mid-transfer write: %v", err)
	}
	if injected == "" {
		t.Fatal("no multi-page transfer happened; the mid-transfer write was never injected")
	}
	records := func() uint64 {
		return sumField(repl.Stats(), func(s ops.ShardLag) uint64 { return s.Records })
	}
	if len(heldAtTail) != 1 || heldAtTail[0] {
		t.Fatalf("mid-transfer write %s is in a transfer pinned before it (held at the tails after it: %v)", injected, heldAtTail)
	}
	if n := records(); n != 1 {
		t.Fatalf("the tail after the transfer applied %d records, want the mid-transfer write alone", n)
	}
	if _, err := follower.Profile(injected); err != nil {
		t.Fatalf("mid-transfer write %s missing on follower after the tail: %v", injected, err)
	}
	if got, want := follower.Users(), f.owner.Users(); !reflect.DeepEqual(got, want) {
		t.Fatalf("user sets differ after the tail: %d vs %d", len(got), len(want))
	}
}

// TestPoisonRecordFallsBackToPagedSnapshot: a single journal record whose
// encoded size exceeds the frame budget used to fail every future pull of
// its shard with the "single journal record" error. The owner must instead
// serve paged snapshot catch-up past the poison record, and live tailing
// must resume afterwards.
func TestPoisonRecordFallsBackToPagedSnapshot(t *testing.T) {
	old := maxTailBytes
	maxTailBytes = 4096
	t.Cleanup(func() { maxTailBytes = old })

	servers := startCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, s := range servers {
		if err := s.repl.Sync(ctx); err != nil { // cursors at head while empty
			t.Fatal(err)
		}
	}

	var poison string
	for i := 0; ; i++ {
		u := fmt.Sprintf("poison-%d", i)
		if recommend.OwnerOf(servers[0].engine.ShardOf(u), 2) == 0 {
			poison = u
			break
		}
	}
	// One profile far over the budget: a single OpProfiles journal record
	// that no trimming can fit into a frame.
	if err := servers[0].router.SetProfile(fatProfile(poison, 600)); err != nil {
		t.Fatal(err)
	}
	if err := servers[1].repl.Sync(ctx); err != nil {
		t.Fatalf("pull across a poison record: %v", err)
	}
	if _, err := servers[1].engine.Profile(poison); err != nil {
		t.Fatalf("poison-record consumer missing on follower: %v", err)
	}
	snapshots := func(st ops.ReplicationSnapshot) uint64 {
		return sumField(st, func(s ops.ShardLag) uint64 { return s.Snapshots })
	}
	records := func(st ops.ReplicationSnapshot) uint64 {
		return sumField(st, func(s ops.ShardLag) uint64 { return s.Records })
	}
	stBefore := servers[1].repl.Stats()
	if snapshots(stBefore) == 0 {
		t.Fatal("poison record did not fall back to snapshot catch-up")
	}

	// Replication is not wedged: a small write on the same shard rides the
	// live tail (records grow, snapshot count does not).
	var small string
	for i := 0; ; i++ {
		u := fmt.Sprintf("small-%d", i)
		if servers[0].engine.ShardOf(u) == servers[0].engine.ShardOf(poison) {
			small = u
			break
		}
	}
	if err := servers[0].router.SetProfile(testProfile(small)); err != nil {
		t.Fatal(err)
	}
	if err := servers[1].repl.Sync(ctx); err != nil {
		t.Fatalf("live tail after poison catch-up: %v", err)
	}
	stAfter := servers[1].repl.Stats()
	if records(stAfter) <= records(stBefore) {
		t.Fatal("live tailing did not resume after the paged catch-up")
	}
	if snapshots(stAfter) != snapshots(stBefore) {
		t.Fatal("small post-poison write forced another snapshot catch-up")
	}
	if _, err := servers[1].engine.Profile(small); err != nil {
		t.Fatalf("post-poison consumer missing on follower: %v", err)
	}
}

// BenchmarkReplicationPagedCatchUp measures a cold follower bootstrapping
// a warm community over real TCP with snapshots that page under the frame
// budget — the snapshot-transfer half of replication, so regressions show
// in the perf trajectory next to the live-tail numbers.
func BenchmarkReplicationPagedCatchUp(b *testing.B) {
	old := maxTailBytes
	maxTailBytes = 1 << 16
	b.Cleanup(func() { maxTailBytes = old })

	f := newPagedFixture(b)
	f.seed(256, 48)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		follower, err := recommend.Open(catalogWithP1(b), recommend.WithJournalFeed(0), recommend.WithShards(8))
		if err != nil {
			b.Fatal(err)
		}
		repl, err := recommend.NewReplicator(follower, 1, []recommend.Peer{NewPeer(f.client, f.srv.Addr()), nil})
		if err != nil {
			b.Fatal(err)
		}
		if err := repl.Sync(ctx); err != nil {
			b.Fatal(err)
		}
		repl.Close()
		follower.Close()
	}
}
