package replnet

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"agentrec/internal/aglet"
	"agentrec/internal/atp"
	"agentrec/internal/catalog"
	"agentrec/internal/ops"
	"agentrec/internal/profile"
	"agentrec/internal/recommend"
	"agentrec/internal/security"
)

// Two engines joined only by the atp journal frame, as two platformd
// processes would be: writes route to shard owners over TCP, followers
// tail the owners' journals over TCP, and all servers converge to the same
// answers.

type tcpServer struct {
	engine *recommend.Engine
	srv    *atp.Server
	router *recommend.Router
	repl   *recommend.Replicator
}

func startCluster(t *testing.T, n int) []*tcpServer {
	t.Helper()
	signer := security.NewSigner([]byte("replnet-test-key"))
	client := atp.NewClient(signer)
	cat := catalog.New()
	if err := cat.Add(&catalog.Product{ID: "p1", Name: "P1", Category: "laptop",
		Terms: map[string]float64{"ssd": 1}, PriceCents: 100, SellerID: "s", Stock: 1}); err != nil {
		t.Fatal(err)
	}

	servers := make([]*tcpServer, n)
	for i := range servers {
		engine, err := recommend.Open(cat, recommend.WithJournalFeed(0), recommend.WithShards(8))
		if err != nil {
			t.Fatal(err)
		}
		host := aglet.NewHost(fmt.Sprintf("buyer-%d", i), aglet.NewRegistry(), aglet.WithTransport(client))
		srv, err := atp.Serve(host, signer, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv.SetJournalHandler(Handler(engine, i, n))
		servers[i] = &tcpServer{engine: engine, srv: srv}
		t.Cleanup(func() { srv.Close(); host.Close(); engine.Close() })
	}
	for i, s := range servers {
		writers := make([]recommend.Writer, n)
		peers := make([]recommend.Peer, n)
		for j, other := range servers {
			if j == i {
				continue
			}
			writers[j] = NewWriter(t.Context(), client, other.srv.Addr())
			peers[j] = NewPeer(client, other.srv.Addr())
		}
		router, err := recommend.NewRouter(s.engine, i, writers)
		if err != nil {
			t.Fatal(err)
		}
		repl, err := recommend.NewReplicator(s.engine, i, peers)
		if err != nil {
			t.Fatal(err)
		}
		s.router, s.repl = router, repl
		t.Cleanup(func() { repl.Close() })
	}
	return servers
}

func testProfile(userID string) *profile.Profile {
	p := profile.NewProfile(userID)
	if err := p.Observe(profile.Evidence{Category: "laptop", Terms: map[string]float64{"ssd": 1}}); err != nil {
		panic(err)
	}
	return p
}

func TestTCPReplicationConverges(t *testing.T) {
	servers := startCluster(t, 2)

	var users []string
	for i := 0; i < 20; i++ {
		users = append(users, fmt.Sprintf("u%02d", i))
	}
	// All writes through server 0's router: remote-owned shards cross TCP.
	for _, u := range users {
		if err := servers[0].router.SetProfile(testProfile(u)); err != nil {
			t.Fatal(err)
		}
		if err := servers[0].router.RecordPurchase(u, "p1"); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, s := range servers {
		if err := s.repl.Sync(ctx); err != nil {
			t.Fatalf("replicator %d: %v", i, err)
		}
	}

	e0, e1 := servers[0].engine, servers[1].engine
	if got, want := e0.Users(), e1.Users(); !reflect.DeepEqual(got, want) || len(got) != len(users) {
		t.Fatalf("user sets differ after sync: %v vs %v", got, want)
	}
	for _, u := range users {
		r0, err0 := e0.Recommend(recommend.StrategyTopSeller, u, "", 5)
		r1, err1 := e1.Recommend(recommend.StrategyTopSeller, u, "", 5)
		if err0 != nil || err1 != nil {
			t.Fatalf("recommend errors: %v / %v", err0, err1)
		}
		if !reflect.DeepEqual(r0, r1) {
			t.Fatalf("answers for %s differ: %v vs %v", u, r0, r1)
		}
		if len(r0) == 0 || r0[0].Score != float64(len(users)) {
			t.Fatalf("sell total for p1 = %v, want %d (every consumer bought it once)", r0, len(users))
		}
	}
	for i, s := range servers {
		st := s.repl.Stats()
		if lag := st.Lag(); lag != 0 {
			t.Fatalf("replicator %d lag = %d after sync", i, lag)
		}
		for _, sh := range st.Shards {
			if sh.LastError != "" {
				t.Fatalf("replicator %d shard %d: %s", i, sh.Shard, sh.LastError)
			}
		}
	}
}

// TestTCPForwardedTimestampedPurchase pins that a dated purchase survives
// the wire in both directions: the timestamp reaches the owner's purchase
// set in the forwarded frame, and comes back to the forwarding server in the
// journal record, so both answer Trending alike.
func TestTCPForwardedTimestampedPurchase(t *testing.T) {
	servers := startCluster(t, 2)
	// Find a user owned by server 1, so server 0's router must forward.
	var remote string
	for i := 0; ; i++ {
		u := fmt.Sprintf("remote-%d", i)
		if recommend.OwnerOf(servers[0].engine.ShardOf(u), 2) == 1 {
			remote = u
			break
		}
	}
	if err := servers[0].router.SetProfile(testProfile(remote)); err != nil {
		t.Fatal(err)
	}
	at := time.Now()
	if err := servers[0].router.Observe(remote, nil, []recommend.PurchasePair{recommend.PurchaseAt(remote, "p1", at)}); err != nil {
		t.Fatal(err)
	}
	trending := servers[1].engine.Trending(at.Add(time.Minute), time.Hour, 5)
	if len(trending) != 1 || trending[0].ProductID != "p1" || trending[0].Count != 1 {
		t.Fatalf("owner trending = %+v, want one p1 purchase", trending)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := servers[0].repl.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := servers[0].engine.Trending(at.Add(time.Minute), time.Hour, 5); !reflect.DeepEqual(got, trending) {
		t.Fatalf("forwarding server trending = %+v, owner %+v", got, trending)
	}
}

// TestForwardedObserveInstallsLocalBytes: an Observe forwarded over the
// wire installs, on the owner, the profile bytes the same Observe made on
// the owner's engine installs, for a consumer the owner does not yet hold
// and for one it does.
func TestForwardedObserveInstallsLocalBytes(t *testing.T) {
	servers := startCluster(t, 2)
	var remote string
	for i := 0; ; i++ {
		u := fmt.Sprintf("remote-%d", i)
		if recommend.OwnerOf(servers[0].engine.ShardOf(u), 2) == 1 {
			remote = u
			break
		}
	}
	local, err := recommend.Open(catalogWithP1(t))
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]profile.Evidence{
		{{Category: "laptop", Terms: map[string]float64{"ssd": 1, "light": 0.25}, Behaviour: profile.BehaviourQuery, At: time.Now()}},
		{
			{Category: "laptop", Terms: map[string]float64{"gpu": 0.1}, SubCategory: "gaming",
				SubTerms: map[string]float64{"rgb": 1e-7}, Behaviour: profile.BehaviourBuy, At: time.Now().In(time.FixedZone("X", 5400))},
			{Category: "camera", Terms: map[string]float64{"lens": 1.0 / 3}, Behaviour: profile.BehaviourBid},
		},
	}
	for i, evs := range batches {
		if err := servers[0].router.Observe(remote, evs, nil); err != nil {
			t.Fatal(err)
		}
		if err := local.Observe(remote, evs, nil); err != nil {
			t.Fatal(err)
		}
		forwarded, err := servers[1].engine.Profile(remote)
		if err != nil {
			t.Fatal(err)
		}
		want, err := local.Profile(remote)
		if err != nil {
			t.Fatal(err)
		}
		fb, _ := forwarded.Marshal()
		wb, _ := want.Marshal()
		if string(fb) != string(wb) {
			t.Fatalf("batch %d: forwarded observe installed %s\nlocal observe installed %s", i, fb, wb)
		}
	}
}

// TestTailTrimmedToFrameBudget shrinks the reply budget so the owner must
// serve journal records in several bounded pulls; the follower's cursor
// advances each round, reported lag is nonzero while it is held behind,
// and replication still converges. A cold follower whose catch-up needs a
// snapshot bigger than the budget bootstraps through the paged snapshot
// transfer instead of erroring.
func TestTailTrimmedToFrameBudget(t *testing.T) {
	old := maxTailBytes
	maxTailBytes = 2048
	t.Cleanup(func() { maxTailBytes = old })

	servers := startCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Catch both followers up while empty, so later writes ride the tail.
	for _, s := range servers {
		if err := s.repl.Sync(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if err := servers[0].router.SetProfile(testProfile(fmt.Sprintf("u%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// One Sync pass per round serves a trimmed prefix; lag must strictly
	// shrink to zero within a bounded number of rounds, and while a round
	// leaves the follower behind the writing owner, Stats must say so.
	for i, s := range servers {
		for round := 0; ; round++ {
			if err := s.repl.Sync(ctx); err != nil {
				t.Fatalf("server %d round %d: %v", i, round, err)
			}
			st := s.repl.Stats()
			caught := true
			for _, sh := range st.Shards {
				next, err := servers[sh.Owner].engine.JournalTail(sh.Shard, sh.Epoch, sh.AppliedSeq)
				if err != nil {
					t.Fatal(err)
				}
				if len(next.Records) > 0 {
					caught = false
				}
			}
			if caught {
				break
			}
			if lag := st.Lag(); lag == 0 {
				t.Fatalf("server %d round %d: follower is behind but Stats lag = 0", i, round)
			}
			if round > 100 {
				t.Fatalf("server %d never caught up", i)
			}
		}
		if lag := s.repl.Stats().Lag(); lag != 0 {
			t.Fatalf("server %d caught up but Stats lag = %d", i, lag)
		}
	}
	if got, want := servers[1].engine.Users(), servers[0].engine.Users(); !reflect.DeepEqual(got, want) {
		t.Fatalf("user sets differ after trimmed tailing: %d vs %d", len(got), len(want))
	}

	// A fresh follower now needs a snapshot that cannot fit the budget:
	// catch-up must page instead of erroring.
	maxTailBytes = 256
	cold, err := recommend.Open(catalogWithP1(t), recommend.WithJournalFeed(0), recommend.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	peers := []recommend.Peer{NewPeer(atpClient(), servers[0].srv.Addr()), nil}
	repl, err := recommend.NewReplicator(cold, 1, peers)
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()
	if err := repl.Sync(ctx); err != nil {
		t.Fatalf("cold follower paged bootstrap: %v", err)
	}
	st := repl.Stats()
	if snaps, pages := sumField(st, func(s ops.ShardLag) uint64 { return s.Snapshots }),
		sumField(st, func(s ops.ShardLag) uint64 { return s.Pages }); snaps == 0 || pages <= snaps {
		t.Fatalf("paged bootstrap stats: %d snapshots, %d pages; want paging (pages > snapshots > 0)", snaps, pages)
	}
	for _, u := range servers[0].engine.Users() {
		if recommend.OwnerOf(servers[0].engine.ShardOf(u), 2) != 0 {
			continue // cold follower only tails server 0's shards
		}
		if _, err := cold.Profile(u); err != nil {
			t.Fatalf("cold follower missing %s after paged bootstrap: %v", u, err)
		}
	}
}

func sumField(st ops.ReplicationSnapshot, f func(ops.ShardLag) uint64) (n uint64) {
	for _, s := range st.Shards {
		n += f(s)
	}
	return n
}

func catalogWithP1(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	if err := cat.Add(&catalog.Product{ID: "p1", Name: "P1", Category: "laptop",
		Terms: map[string]float64{"ssd": 1}, PriceCents: 100, SellerID: "s", Stock: 1}); err != nil {
		t.Fatal(err)
	}
	return cat
}

func atpClient() *atp.Client {
	return atp.NewClient(security.NewSigner([]byte("replnet-test-key")))
}

// TestMisorderedPeerListRejected pins the ownership guard: a forwarded
// write that lands on a server which does not own the consumer's shard
// (the symptom of -buyer-peers lists disagreeing on order) is rejected
// loudly instead of silently diverging the replicas.
func TestMisorderedPeerListRejected(t *testing.T) {
	servers := startCluster(t, 2)
	// Behind server 1's address now sits a server configured as self=0.
	servers[1].srv.SetJournalHandler(Handler(fenceEngine(t), 0, 2))

	var remote string
	for i := 0; ; i++ {
		u := fmt.Sprintf("mis-%d", i)
		if recommend.OwnerOf(servers[0].engine.ShardOf(u), 2) == 1 {
			remote = u
			break
		}
	}
	err := servers[0].router.SetProfile(testProfile(remote))
	if err == nil || !strings.Contains(err.Error(), "owned by") {
		t.Fatalf("misrouted write error = %v, want ownership rejection", err)
	}
	if err := servers[0].router.RecordPurchase(remote, "p1"); err == nil || !strings.Contains(err.Error(), "owned by") {
		t.Fatalf("misrouted purchase error = %v, want ownership rejection", err)
	}
}

// TestStaticHandlerFencesTails: a handler over a static engine fences
// journal tails and snapshot pages through its epoch-1 map, like every
// other handler: it serves a shard it owns to a peer that stamps the
// static epoch, and refuses one it does not own.
func TestStaticHandlerFencesTails(t *testing.T) {
	servers := startCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	peer := NewPeer(atpClient(), servers[1].srv.Addr())
	owned, foreign := -1, -1
	for s := range servers[1].engine.Shards() {
		if recommend.OwnerOf(s, 2) == 1 {
			owned = s
		} else {
			foreign = s
		}
	}
	tr, err := peer.JournalTail(ctx, owned, 0, 0)
	if err != nil {
		t.Fatalf("tail of owned shard %d: %v", owned, err)
	}
	if _, err := peer.SnapshotPage(ctx, owned, tr.Epoch, tr.Seq, ""); err != nil {
		t.Fatalf("page of owned shard %d: %v", owned, err)
	}
	if _, err := peer.JournalTail(ctx, foreign, 0, 0); err == nil || !strings.Contains(err.Error(), "owned by") {
		t.Fatalf("tail of foreign shard %d: err = %v, want ownership refusal", foreign, err)
	}
	if _, err := peer.SnapshotPage(ctx, foreign, tr.Epoch, tr.Seq, ""); err == nil || !strings.Contains(err.Error(), "owned by") {
		t.Fatalf("page of foreign shard %d: err = %v, want ownership refusal", foreign, err)
	}
}
