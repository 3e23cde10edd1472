package platform

import (
	"reflect"
	"testing"
	"time"

	"agentrec/internal/catalog"
	"agentrec/internal/ops"
	"agentrec/internal/recommend"
)

// TestPlatformElasticOwnership boots the coordinator-mediated ownership
// plane end to end: lease clients arm every server's table at the static
// epoch-1 map with zero boot churn, a deregistration publishes a leave
// transition and moves the departed server's shards, and the still-running
// lease client rejoins and reclaims them (join transition) once its
// replicas prove caught up — after which writes route and converge as
// before.
func TestPlatformElasticOwnership(t *testing.T) {
	products := demoProducts()
	for _, prod := range products {
		prod.Stock = 100
	}
	p, err := New(Config{
		Marketplaces:     1,
		BuyerServers:     3,
		ElasticOwnership: true,
		OwnershipLease:   20 * time.Millisecond,
		ReplicationPull:  10 * time.Millisecond,
		Products:         products,
		Events:           true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Ownership == nil {
		t.Fatal("ElasticOwnership did not attach an authority")
	}

	// Lease clients renew immediately: every table arms without the map
	// moving (static-first placement means a healthy boot never churns).
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 3; i++ {
		tab := p.Replicas[i].Engine.Ownership()
		if tab == nil {
			t.Fatalf("server %d has no ownership table", i)
		}
		for tab.Expired() != nil {
			if time.Now().After(deadline) {
				t.Fatalf("server %d lease never landed: %v", i, tab.Expired())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if e := p.Ownership.Map().Epoch; e != 1 {
		t.Fatalf("healthy boot moved the map to epoch %d", e)
	}

	ctx := testCtx(t)
	sub, err := p.Subscribe(ctx, ops.KindOwnership)
	if err != nil {
		t.Fatal(err)
	}

	users := []string{"alice", "bob", "carol", "dave", "erin", "frank"}
	for i, user := range users {
		b := p.Buyers[i%len(p.Buyers)]
		if err := b.Register(ctx, user); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Login(ctx, user); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Buy(ctx, user, "p1", 0, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.SyncReplicas(ctx); err != nil {
		t.Fatal(err)
	}
	// Purchase times live in the replicated shards, so the §5.2 listings do
	// not care who owns what: every server answers alike now, and — nobody
	// buying meanwhile — keeps answering that through the fail-over.
	bought := time.Now()
	listingsAgree := func(when string, now time.Time, buyers int) {
		t.Helper()
		hot0, ties0 := purchaseListings(p.Engine, now, true)
		if len(hot0) == 0 || hot0[0].Count != buyers {
			t.Fatalf("%s: server 0 trending = %+v, want %d buyers of the hottest product", when, hot0, buyers)
		}
		for i, e := range engines(p)[1:] {
			if hot, ties := purchaseListings(e, now, true); !reflect.DeepEqual(hot, hot0) || !reflect.DeepEqual(ties, ties0) {
				t.Fatalf("%s: server %d lists\n %+v\n %+v\nserver 0\n %+v\n %+v", when, i+1, hot, ties, hot0, ties0)
			}
		}
	}
	listingsAgree("before the leave", bought, len(users))

	// Server 2 leaves: its shards fail over to the survivors under a leave
	// transition published by the authority (Server -1). Its lease client
	// is still running, so it rejoins and — replicas caught up — reclaims
	// its static shards under a join transition. A leave hands each shard to
	// the most caught-up survivor, so while server 2 is out a join may also
	// rebalance a shard onto its rendezvous-preferred survivor; once server 2
	// is back, every join moves shards home to it.
	if err := p.Ownership.DeregisterServer(2); err != nil {
		t.Fatal(err)
	}
	var sawLeave, sawJoin bool
	for !(sawLeave && sawJoin) {
		ev, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("leave=%v join=%v before stream ended: %v", sawLeave, sawJoin, err)
		}
		if ev.Kind != ops.KindOwnership {
			t.Fatalf("unexpected kind %q with ownership filter", ev.Kind)
		}
		o := ev.Ownership
		if o.Server != -1 {
			t.Fatalf("authority transition carries server %d, want -1", o.Server)
		}
		if o.Epoch != o.PrevEpoch+1 || len(o.Moved) == 0 {
			t.Fatalf("transition payload = %+v", o)
		}
		switch o.Reason {
		case ops.OwnershipLeave:
			sawLeave = true
			listingsAgree("after the fail-over", bought, len(users))
			for _, mv := range o.Moved {
				if mv.From != 2 {
					t.Fatalf("leave moved shard %d from server %d, want only server 2's shards", mv.Shard, mv.From)
				}
			}
		case ops.OwnershipJoin:
			for _, mv := range o.Moved {
				switch {
				case mv.To == 2:
					sawJoin = true
				case sawJoin:
					t.Fatalf("join moved shard %d to server %d after server 2 rejoined, want only back to server 2", mv.Shard, mv.To)
				case mv.To != recommend.RendezvousOwner(mv.Shard, []int{0, 1}):
					t.Fatalf("join moved shard %d to server %d while server 2 was out, want its rendezvous survivor %d",
						mv.Shard, mv.To, recommend.RendezvousOwner(mv.Shard, []int{0, 1}))
				}
			}
		case ops.OwnershipFailover:
			t.Fatal("clean deregistration published a failover transition")
		}
	}

	// The rejoin restores the static assignment — possibly over several
	// transitions, one per renewal as shards prove caught up. Poll until
	// the authority settles there, then wait for every table to adopt the
	// final epoch so post-transition writes see one world.
	static := recommend.StaticOwnership(p.Engine.Shards(), 3)
	final := p.Ownership.Map()
	for {
		settled := true
		for s, owner := range final.Assign {
			if owner != static.Assign[s] {
				settled = false
				break
			}
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("map never settled back to static: %+v", final)
		}
		time.Sleep(5 * time.Millisecond)
		final = p.Ownership.Map()
	}
	for i := 0; i < 3; i++ {
		for p.Replicas[i].Engine.Ownership().Epoch() != final.Epoch {
			if time.Now().After(deadline) {
				t.Fatalf("server %d table stuck at epoch %d, authority at %d", i, p.Replicas[i].Engine.Ownership().Epoch(), final.Epoch)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Writes still route and replicate across the settled cluster.
	for i, user := range users {
		b := p.Buyers[i%len(p.Buyers)]
		if _, err := b.Buy(ctx, user, "p2", 0, false); err != nil {
			t.Fatalf("post-transition buy for %s: %v", user, err)
		}
	}
	if err := p.SyncReplicas(ctx); err != nil {
		t.Fatal(err)
	}
	listingsAgree("after the rejoin", time.Now(), len(users))
	for i, e := range engines(p) {
		if got := len(e.Users()); got != len(users) {
			t.Errorf("engine %d community = %d users, want %d", i, got, len(users))
		}
		recs, err := e.Recommend(recommend.StrategyTopSeller, "", "", 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 {
			t.Fatalf("engine %d top sellers = %+v", i, recs)
		}
		for _, r := range recs {
			if r.Score != float64(len(users)) {
				t.Errorf("engine %d: %s sales = %v, want %d", i, r.ProductID, r.Score, len(users))
			}
		}
	}
}

func TestPlatformElasticRequiresReplication(t *testing.T) {
	if _, err := New(Config{Marketplaces: 1, ElasticOwnership: true, Products: []*catalog.Product{}}); err == nil {
		t.Fatal("ElasticOwnership on one buyer server must refuse")
	}
}
