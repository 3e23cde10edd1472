package platform

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"agentrec/internal/catalog"
	"agentrec/internal/coordinator"
	"agentrec/internal/profile"
	"agentrec/internal/recommend"
)

// userOwnedBy returns a user id, starting with prefix, whose shard server
// owner holds under the static map.
func userOwnedBy(e *recommend.Engine, prefix string, owner, servers int) string {
	for k := 0; ; k++ {
		id := fmt.Sprintf("%s-%d", prefix, k)
		if recommend.OwnerOf(e.ShardOf(id), servers) == owner {
			return id
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReplicaRunStopsOnCancel: Run is the whole lifecycle of a replica —
// while it runs, journal pulls and lease renewals both make progress; once
// its ctx is cancelled it returns with both loops stopped, and Close leaves
// no goroutine behind.
func TestReplicaRunStopsOnCancel(t *testing.T) {
	before := runtime.NumGoroutine()

	cat := catalog.New()
	auth, err := coordinator.NewOwnershipAuthority(coordinator.OwnershipConfig{
		Shards: recommend.DefaultShards, Servers: 2, LeaseTTL: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var renewals atomic.Int64
	var rs []*Replica
	for i := 0; i < 2; i++ {
		r, err := NewReplica(ReplicaConfig{
			Self: i, Servers: 2, Catalog: cat,
			Pull:  2 * time.Millisecond,
			Lease: 2 * time.Millisecond,
			Renew: func(_ context.Context, server int, applied []uint64) (coordinator.LeaseGrant, error) {
				renewals.Add(1)
				return auth.Renew(server, applied)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	for i, r := range rs {
		if err := r.Connect(LocalLinks(rs, i)); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	returned := make(chan error, len(rs))
	for _, r := range rs {
		go func() { returned <- r.Run(ctx) }()
	}

	// Lease renewals arm both tables; a write owned by server 0, made
	// through server 1's router, reaches server 1's replica by the pull loop.
	for i, r := range rs {
		waitFor(t, fmt.Sprintf("server %d's first lease", i), func() bool {
			return r.Engine.Ownership().Expired() == nil && renewals.Load() > 0
		})
	}
	user := userOwnedBy(rs[0].Engine, "early", 0, 2)
	if err := rs[1].Router.SetProfile(profile.NewProfile(user)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the pull loop to replicate the write", func() bool {
		_, err := rs[1].Engine.Profile(user)
		return err == nil
	})

	cancel()
	for range rs {
		select {
		case err := <-returned:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Run returned %v, want context.Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Run did not return after cancel")
		}
	}

	// Both loops are gone: no further renewal, no further pull.
	settled := renewals.Load()
	late := userOwnedBy(rs[0].Engine, "late", 0, 2)
	if err := rs[0].Engine.SetProfile(profile.NewProfile(late)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if got := renewals.Load(); got != settled {
		t.Errorf("lease renewals continued after Run returned: %d -> %d", settled, got)
	}
	if _, err := rs[1].Engine.Profile(late); err == nil {
		t.Error("pull loop still replicating after Run returned")
	}

	for _, r := range rs {
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "goroutines to drain", func() bool { return runtime.NumGoroutine() <= before })
}

// shop runs the Fig 4.3 buy workflow for a fixed set of new consumers, spread
// over every buyer server of p, and returns the listing window's end: a
// moment after the last purchase, which the PA stamped with its own clock.
func shop(t *testing.T, p *Platform) time.Time {
	t.Helper()
	ctx := testCtx(t)
	baskets := [][]string{{"p1", "p2"}, {"p1"}, {"p2", "p3"}, {"p1", "p2"}, {"p4"}, {"p1", "p3"}}
	for i, basket := range baskets {
		user, b := fmt.Sprintf("shopper-%d", i), p.Buyers[i%len(p.Buyers)]
		if err := b.Register(ctx, user); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Login(ctx, user); err != nil {
			t.Fatal(err)
		}
		for _, pid := range basket {
			if _, err := b.Buy(ctx, user, pid, 0, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.SyncReplicas(ctx); err != nil {
		t.Fatal(err)
	}
	return time.Now()
}

// purchaseListings is what a server answers for the §5.2 reads: the hour's
// trending products, and the tied sales of each product on sale. Scores
// weigh a purchase by its age, so withScores is for comparing servers that
// share one set of purchases; across platforms that shopped at different
// moments only products and counts compare.
func purchaseListings(e *recommend.Engine, now time.Time, withScores bool) ([]recommend.TrendEntry, [][]recommend.TiedSale) {
	hot := e.Trending(now, time.Hour, 10)
	if !withScores {
		for i := range hot {
			hot[i].Score = 0
		}
	}
	var ties [][]recommend.TiedSale
	for _, prod := range demoProducts() {
		ties = append(ties, e.TiedSales(prod.ID, 1, 10))
	}
	return hot, ties
}

// TestReplicatedStaticAndElasticAgree: the static deployment is the elastic
// one minus the leases — same routed, fenced path — so after the same seed
// and the same shopping both answer exactly like a single engine, on every
// server, and report the same topology.
func TestReplicatedStaticAndElasticAgree(t *testing.T) {
	products := demoProducts()
	for _, prod := range products {
		prod.Stock = 100 // three platforms shop from the same stock
	}
	profiles := make([]*profile.Profile, 0, 12)
	for i := 0; i < 12; i++ {
		pr := profile.NewProfile(fmt.Sprintf("u%d", i))
		for k := 0; k <= i%3; k++ {
			if err := pr.Observe(products[(i+k)%len(products)].Evidence(profile.BehaviourBuy)); err != nil {
				t.Fatal(err)
			}
		}
		profiles = append(profiles, pr)
	}
	purchases := map[string][]string{"u0": {"p1"}, "u1": {"p2", "p1"}, "u5": {"p3"}}

	reference, err := New(Config{Marketplaces: 1, Products: products})
	if err != nil {
		t.Fatal(err)
	}
	defer reference.Close()
	if err := reference.SeedCommunity(profiles, purchases); err != nil {
		t.Fatal(err)
	}
	wantHot, wantTies := purchaseListings(reference.Engine, shop(t, reference), false)
	if len(wantHot) != len(products) || wantHot[0].ProductID != "p1" || wantHot[0].Count != 4 {
		t.Fatalf("reference trending = %+v, want all four products, p1 first with 4 buyers", wantHot)
	}

	// topology is the part of Metrics that must not depend on the mode:
	// which servers exist and which shards each one follows from whom.
	type followed struct{ server, shard, owner int }
	var topologies [][]followed

	for _, mode := range []struct {
		name    string
		elastic bool
	}{{"static", false}, {"elastic", true}} {
		t.Run(mode.name, func(t *testing.T) {
			p, err := New(Config{
				Marketplaces:     1,
				BuyerServers:     3,
				ElasticOwnership: mode.elastic,
				OwnershipLease:   200 * time.Millisecond,
				ReplicationPull:  10 * time.Millisecond,
				Products:         products,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if mode.elastic {
				for i := range engines(p) {
					waitFor(t, fmt.Sprintf("server %d's first lease", i), func() bool {
						return p.Replicas[i].Engine.Ownership().Expired() == nil
					})
				}
			}
			if err := p.SeedCommunity(profiles, purchases); err != nil {
				t.Fatal(err)
			}
			now := shop(t, p)
			hot0, ties0 := purchaseListings(p.Engine, now, true)

			for i, e := range engines(p) {
				// Every server holds the whole community's purchases, times
				// included: it lists what a single engine would, and exactly
				// what Platform.Hottest/TiedSales (server 0) does.
				if hot, ties := purchaseListings(e, now, false); !reflect.DeepEqual(hot, wantHot) || !reflect.DeepEqual(ties, wantTies) {
					t.Errorf("server %d lists\n %+v\n %+v\nthe single engine\n %+v\n %+v", i, hot, ties, wantHot, wantTies)
				}
				if hot, ties := purchaseListings(e, now, true); !reflect.DeepEqual(hot, hot0) || !reflect.DeepEqual(ties, ties0) {
					t.Errorf("server %d lists\n %+v\n %+v\nserver 0\n %+v\n %+v", i, hot, ties, hot0, ties0)
				}
				for _, pr := range profiles {
					for _, strategy := range []recommend.Strategy{recommend.StrategyAuto, recommend.StrategyTopSeller} {
						want, err := reference.Engine.Recommend(strategy, pr.UserID, "", 5)
						if err != nil {
							t.Fatal(err)
						}
						got, err := e.Recommend(strategy, pr.UserID, "", 5)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("server %d, %s, strategy %v:\n got %+v\nwant %+v", i, pr.UserID, strategy, got, want)
						}
					}
				}
			}

			var topo []followed
			for _, sv := range p.Metrics().Servers {
				if sv.Replication == nil {
					t.Fatalf("server %d reports no replication view", sv.Server)
				}
				for _, sh := range sv.Replication.Shards {
					topo = append(topo, followed{sv.Server, sh.Shard, sh.Owner})
				}
			}
			topologies = append(topologies, topo)

			if mode.elastic {
				return
			}
			// Static is the never-leased epoch-1 table on the fenced path: a
			// routed remote write passes the receiver's fence (1 == 1), and no
			// amount of waiting makes a table that was never leased expire.
			user := userOwnedBy(p.Engine, "routed", 2, 3)
			if err := p.Writer(0).SetProfile(profile.NewProfile(user)); err != nil {
				t.Fatalf("static routed remote write refused: %v", err)
			}
			if _, err := engines(p)[2].Profile(user); err != nil {
				t.Fatalf("routed write did not land on its owner: %v", err)
			}
			shard := p.Engine.ShardOf(user)
			for i := range engines(p) {
				tab := p.Replicas[i].Engine.Ownership()
				if tab.Epoch() != 1 {
					t.Errorf("server %d static table at epoch %d", i, tab.Epoch())
				}
				if err := tab.Expired(); err != nil {
					t.Errorf("server %d never-leased table expired: %v", i, err)
				}
			}
			if err := p.Replicas[2].Engine.Ownership().Fence(p.Replicas[0].Engine.Ownership().Epoch(), shard, 2); err != nil {
				t.Errorf("receiver's fence refuses the static sender: %v", err)
			}
			// The fence is on the path, not beside it: once the sender's map
			// moves ahead of the receiver's, the same routed write is refused.
			ahead := p.Replicas[0].Engine.Ownership().Current()
			ahead.Epoch++
			p.Replicas[0].Engine.Ownership().Advance(ahead)
			if err := p.Writer(0).SetProfile(profile.NewProfile(user)); !errors.Is(err, recommend.ErrStaleEpoch) {
				t.Errorf("routed write across mismatched epochs = %v, want ErrStaleEpoch", err)
			}
		})
	}
	if len(topologies) == 2 && !reflect.DeepEqual(topologies[0], topologies[1]) {
		t.Errorf("static and elastic report different topologies:\nstatic  %+v\nelastic %+v", topologies[0], topologies[1])
	}
}

// TestDirectEngineWriteFenced: the engine's public write API is the owner's
// local write on every server. A direct write on server 1, for a shard
// server 0 owns, is refused with ErrNotOwner before it reaches server 1's
// journal feed, so no sync spreads it and the replicas cannot diverge; and
// once server 1's lease has lapsed, a direct write for a shard it owns is
// refused with ErrLeaseExpired.
func TestDirectEngineWriteFenced(t *testing.T) {
	p, err := New(Config{Marketplaces: 1, BuyerServers: 2, Products: demoProducts()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	eng := p.Replicas[1].Engine
	at := time.Now()
	writes := map[string]func(user string) error{
		"set-profile":  func(u string) error { return eng.SetProfile(profile.NewProfile(u)) },
		"set-profiles": func(u string) error { return eng.SetProfiles([]*profile.Profile{profile.NewProfile(u)}) },
		"purchase":     func(u string) error { return eng.RecordPurchaseAt(u, "p1", at) },
	}
	refused := func(name, user string, want error) {
		t.Helper()
		heads := eng.FeedHeads()
		if err := writes[name](user); !errors.Is(err, want) {
			t.Fatalf("%s on server 1 for %s: err = %v, want %v", name, user, err, want)
		}
		if got := eng.FeedHeads(); !reflect.DeepEqual(got, heads) {
			t.Fatalf("refused %s moved server 1's feed: heads %v -> %v", name, heads, got)
		}
	}

	for name := range writes {
		user := userOwnedBy(eng, name, 0, 2)
		refused(name, user, recommend.ErrNotOwner)
		if err := p.SyncReplicas(context.Background()); err != nil {
			t.Fatal(err)
		}
		for i, r := range p.Replicas {
			if _, err := r.Engine.Profile(user); err == nil {
				t.Errorf("%s: server %d holds %s after a refused write", name, i, user)
			}
			if got := r.Engine.Snapshot().Purchases(user); len(got) != 0 {
				t.Errorf("%s: server %d holds purchases %v of %s after a refused write", name, i, got, user)
			}
		}
	}

	eng.Ownership().Lease(time.Now().Add(-time.Millisecond))
	for name := range writes {
		refused(name, userOwnedBy(eng, "own-"+name, 1, 2), recommend.ErrLeaseExpired)
	}
}
