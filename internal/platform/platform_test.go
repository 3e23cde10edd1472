package platform

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"agentrec/internal/catalog"
	"agentrec/internal/coordinator"
	"agentrec/internal/profile"
	"agentrec/internal/recommend"
	"agentrec/internal/trace"
	"agentrec/internal/workload"
)

func demoProducts() []*catalog.Product {
	return []*catalog.Product{
		{ID: "p1", Name: "UltraBook", Category: "laptop", Terms: map[string]float64{"ssd": 1}, PriceCents: 100000, SellerID: "s1", Stock: 5},
		{ID: "p2", Name: "GameBook", Category: "laptop", Terms: map[string]float64{"gpu": 1}, PriceCents: 150000, SellerID: "s1", Stock: 5},
		{ID: "p3", Name: "Shooter", Category: "camera", Terms: map[string]float64{"lens": 1}, PriceCents: 50000, SellerID: "s2", Stock: 5},
		{ID: "p4", Name: "Zoomer", Category: "camera", Terms: map[string]float64{"zoom": 1}, PriceCents: 60000, SellerID: "s2", Stock: 5},
	}
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestPlatformArchitecture is experiment F3.1: every server role of Fig 3.1
// boots, registers, and interoperates.
func TestPlatformArchitecture(t *testing.T) {
	tracer := trace.New()
	p, err := New(Config{
		Marketplaces: 2,
		BuyerServers: 1,
		Tracer:       tracer,
		Products:     demoProducts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Coordinator knows every marketplace and the buyer server.
	if got := p.Coordinator.Lookup(coordinator.KindMarketplace); len(got) != 2 {
		t.Errorf("marketplaces registered = %d", len(got))
	}
	if got := p.Coordinator.Lookup(coordinator.KindBuyerServer); len(got) != 1 {
		t.Errorf("buyer servers registered = %d", len(got))
	}
	// Products distributed round-robin: each marketplace holds two.
	for i, m := range p.Markets {
		if m.Catalog().Len() != 2 {
			t.Errorf("market %d holds %d products", i, m.Catalog().Len())
		}
	}
	// Integrated catalog holds everything.
	if p.Union.Len() != 4 {
		t.Errorf("union catalog = %d products", p.Union.Len())
	}

	// An end-to-end trade works across the assembled platform.
	ctx := testCtx(t)
	b := p.Buyer()
	if err := b.Register(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Login(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	res, err := b.Query(ctx, "alice", catalog.Query{Category: "laptop"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2 {
		t.Errorf("query visited %d markets", len(res.Results))
	}
}

func TestPlatformDefaults(t *testing.T) {
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if len(p.Markets) != 2 || len(p.Buyers) != 1 {
		t.Errorf("defaults: %d markets, %d buyers", len(p.Markets), len(p.Buyers))
	}
}

func TestPlatformSellerFeeds(t *testing.T) {
	p, err := New(Config{Marketplaces: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	jsonFeed := `[{"sku":"X1","title":"Thing","cat":"Gadget","subcat":"Small",
		"keywords":["neat"],"price_cents":1999,"qty":10}]`
	n, err := p.IntegrateJSONFeed(0, strings.NewReader(jsonFeed), "sellerA")
	if err != nil || n != 1 {
		t.Fatalf("json feed: %d, %v", n, err)
	}
	csvFeed := `Y1,Widget,Gadget>Small,neat:0.5,12.50,3`
	n, err = p.IntegrateCSVFeed(1, strings.NewReader(csvFeed), "sellerB")
	if err != nil || n != 1 {
		t.Fatalf("csv feed: %d, %v", n, err)
	}

	// Both sellers' goods are in the union under the same category space.
	got := p.Union.Search(catalog.Query{Category: "gadget"})
	if len(got) != 2 {
		t.Fatalf("union search = %d products, want 2", len(got))
	}
	// Sellers registered with the coordinator.
	if got := p.Coordinator.Lookup(coordinator.KindSeller); len(got) != 2 {
		t.Errorf("sellers registered = %d", len(got))
	}
	// And a marketplace query finds the seller's goods.
	m := p.Markets[0].Query(catalog.Query{Category: "gadget"})
	if len(m) != 1 || m[0].Product.SellerID != "sellerA" {
		t.Errorf("market query = %+v", m)
	}
}

func TestPlatformStockErrors(t *testing.T) {
	p, err := New(Config{Marketplaces: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Stock(5, demoProducts()[0]); err == nil {
		t.Error("Stock accepted bad index")
	}
	if _, err := p.IntegrateJSONFeed(5, strings.NewReader("[]"), "s"); err == nil {
		t.Error("IntegrateJSONFeed accepted bad index")
	}
}

// engines lists every buyer server's engine in server order.
func engines(p *Platform) []*recommend.Engine {
	out := make([]*recommend.Engine, len(p.Replicas))
	for i, r := range p.Replicas {
		out[i] = r.Engine
	}
	return out
}

// TestDeploymentShapesAnswerAlike: one community seeded into a one-server
// and a three-server platform, with the same few writes entering at
// different servers, is one community. After SyncReplicas every engine of
// the three holds the one server's consumers and ranks what it ranks, for
// every consumer and strategy, over the whole catalogue and in the
// consumer's top category.
func TestDeploymentShapesAnswerAlike(t *testing.T) {
	u, err := workload.Generate(workload.Config{Seed: 32, Users: 80, Products: 200, Categories: 6})
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := u.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	var shapes []*Platform
	for _, servers := range []int{1, 3} {
		p, err := New(Config{Marketplaces: 1, BuyerServers: servers, Products: u.Products})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if err := p.SeedCommunity(profiles, u.Purchases()); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 6; k++ {
			user, prod := profiles[k*11], u.Products[k*13]
			refreshed := user.Clone()
			if err := refreshed.Observe(prod.Evidence(profile.BehaviourBuy)); err != nil {
				t.Fatal(err)
			}
			w := p.Writer(k % servers)
			if err := w.SetProfile(refreshed); err != nil {
				t.Fatal(err)
			}
			if err := w.RecordPurchase(user.UserID, prod.ID); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.SyncReplicas(testCtx(t)); err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, p)
	}

	ranked := func(e *recommend.Engine, s recommend.Strategy, user, category string) []string {
		recs, err := e.Recommend(s, user, category, 10)
		if err != nil {
			return []string{"error: " + err.Error()}
		}
		ids := make([]string, len(recs))
		for i, r := range recs {
			ids[i] = r.ProductID
		}
		return ids
	}
	want := shapes[0].Engine
	strategies := []recommend.Strategy{recommend.StrategyCF, recommend.StrategyIF, recommend.StrategyHybrid, recommend.StrategyTopSeller, recommend.StrategyAuto}
	for i, e := range engines(shapes[1]) {
		if got := e.Users(); !slices.Equal(got, want.Users()) {
			t.Fatalf("server %d holds %d consumers, the one server %d", i, len(got), len(want.Users()))
		}
		for _, pr := range profiles {
			for _, category := range []string{"", pr.TopCategories(1)[0].Term} {
				for _, s := range strategies {
					if got, exp := ranked(e, s, pr.UserID, category), ranked(want, s, pr.UserID, category); !slices.Equal(got, exp) {
						t.Fatalf("server %d, %s in %q, %v: ranks %v, the one server %v", i, pr.UserID, category, s, got, exp)
					}
				}
			}
		}
	}
}

func TestPlatformCloseIdempotent(t *testing.T) {
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPlatformStateDirWarmRestart boots a durable platform, lets a consumer
// shop, and restarts on the same state dir: the community (profile,
// purchases, sell counts) and the consumer's account must all survive.
func TestPlatformStateDirWarmRestart(t *testing.T) {
	ctx := testCtx(t)
	dir := t.TempDir()

	boot := func() *Platform {
		t.Helper()
		p, err := New(Config{Marketplaces: 2, StateDir: dir, Products: demoProducts()})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	p := boot()
	if err := p.Buyer().Register(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Buyer().Login(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if res, err := p.Buyer().Buy(ctx, "alice", "p1", 0, false); err != nil || res.Sale == nil {
		t.Fatalf("buy: %v (sale=%v)", err, res.Sale)
	}
	wantProfile, err := p.Engine.Profile("alice")
	if err != nil {
		t.Fatal(err)
	}
	wantRecs, err := p.Buyer().Recommendations("alice", "laptop", 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := boot()
	defer p2.Close()
	// The engine recovered the community without any re-registration.
	gotProfile, err := p2.Engine.Profile("alice")
	if err != nil {
		t.Fatalf("alice's profile lost across restart: %v", err)
	}
	if gotProfile.Observed != wantProfile.Observed {
		t.Errorf("recovered Observed = %d, want %d", gotProfile.Observed, wantProfile.Observed)
	}
	if !p2.Engine.Snapshot().Purchases("alice")["p1"] {
		t.Error("alice's purchase lost across restart")
	}
	// The durable UserDB still knows the account: re-register is rejected,
	// login works directly.
	if err := p2.Buyer().Register(ctx, "alice"); err == nil {
		t.Error("re-register after restart succeeded; UserDB not durable")
	}
	if _, err := p2.Buyer().Login(ctx, "alice"); err != nil {
		t.Fatalf("login after restart: %v", err)
	}
	gotRecs, err := p2.Buyer().Recommendations("alice", "laptop", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRecs) != len(wantRecs) {
		t.Fatalf("recommendations changed across restart: %v vs %v", gotRecs, wantRecs)
	}
	for i := range wantRecs {
		if gotRecs[i].ProductID != wantRecs[i].ProductID {
			t.Errorf("rec[%d] = %s, want %s", i, gotRecs[i].ProductID, wantRecs[i].ProductID)
		}
	}
}

// TestSeedCommunityBulkPath seeds through the batch install and checks that
// the seeded consumers, purchases and neighbours are all served.
func TestSeedCommunityBulkPath(t *testing.T) {
	p, err := New(Config{Marketplaces: 1, Products: demoProducts()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	profiles := make([]*profile.Profile, 0, 6)
	for i := 0; i < 6; i++ {
		pr := profile.NewProfile(fmt.Sprintf("u%d", i))
		prod := demoProducts()[i%4]
		if err := pr.Observe(prod.Evidence(profile.BehaviourBuy)); err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, pr)
	}
	if err := p.SeedCommunity(profiles, map[string][]string{"u0": {"p1"}, "u1": {"p2"}}); err != nil {
		t.Fatal(err)
	}
	st := p.Engine.Stats()
	if st.Users != 6 {
		t.Errorf("seeded users = %d, want 6", st.Users)
	}
	// u0 and u4 bought the same product, so each is the other's nearest
	// neighbour in its category.
	nbs, err := p.Engine.Neighbors("u0", "", recommend.SearchExact)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) == 0 || nbs[0].UserID != "u4" {
		t.Errorf("u0's neighbours after the bulk seed = %+v, want u4 first", nbs)
	}
	if !p.Engine.Snapshot().Purchases("u0")["p1"] {
		t.Error("seeded purchase missing")
	}
}

// TestReplicatedBuyerServers boots the Fig 3.1 multi-server deployment
// with per-server engines: writes route to shard owners through the
// consumer workflows, replicas tail the journals, and after a sync every
// buyer server answers from local state with the same community.
func TestReplicatedBuyerServers(t *testing.T) {
	products := demoProducts()
	for _, prod := range products {
		prod.Stock = 100 // six consumers each buy p1
	}
	p, err := New(Config{
		Marketplaces: 1,
		BuyerServers: 3,
		Products:     products,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if len(p.Replicas) != 3 {
		t.Fatalf("replicated platform has %d replicas", len(p.Replicas))
	}
	if p.Engine != engines(p)[0] {
		t.Fatal("Engine is not server 0's engine")
	}

	ctx := testCtx(t)
	// Consumers register on different servers; their profile installs are
	// routed to the owning server regardless.
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
	// Every server's engine now holds the whole community locally.
	for i, e := range engines(p) {
		if got := len(e.Users()); got != len(users) {
			t.Errorf("engine %d community = %d users, want %d", i, got, len(users))
		}
	}
	// And answers identically: the purchase-driven top seller is p1 with
	// one sale per consumer, on every server.
	for i, e := range engines(p) {
		recs, err := e.Recommend(recommend.StrategyTopSeller, "", "", 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].ProductID != "p1" || recs[0].Score != float64(len(users)) {
			t.Errorf("engine %d top seller = %+v, want p1 with %d sales", i, recs, len(users))
		}
	}
	// Replication stats see every non-owned shard healthy.
	for i, r := range p.Replicas {
		st := r.Replicator.Stats()
		if st.Lag() != 0 {
			t.Errorf("replicator %d lag = %d after sync", i, st.Lag())
		}
		for _, sh := range st.Shards {
			if sh.LastError != "" {
				t.Errorf("replicator %d shard %d: %s", i, sh.Shard, sh.LastError)
			}
		}
	}
}

// TestReplicatedSeedCommunity pins the seeding barrier: SeedCommunity on a
// replicated platform routes through the owners and syncs, so every engine
// reads the seeded community immediately after.
func TestReplicatedSeedCommunity(t *testing.T) {
	p, err := New(Config{
		Marketplaces: 1,
		BuyerServers: 2,
		Products:     demoProducts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	profiles := make([]*profile.Profile, 0, 8)
	for i := 0; i < 8; i++ {
		pr := profile.NewProfile(fmt.Sprintf("u%d", i))
		prod := demoProducts()[i%4]
		if err := pr.Observe(prod.Evidence(profile.BehaviourBuy)); err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, pr)
	}
	if err := p.SeedCommunity(profiles, map[string][]string{"u0": {"p1"}, "u1": {"p2"}}); err != nil {
		t.Fatal(err)
	}
	for i, e := range engines(p) {
		if st := e.Stats(); st.Users != 8 {
			t.Errorf("engine %d seeded users = %d, want 8", i, st.Users)
		}
		if !e.Snapshot().Purchases("u0")["p1"] {
			t.Errorf("engine %d missing seeded purchase", i)
		}
	}
}

// TestPlatformCompactRatioBoundsJournal: Config.CompactRatio plumbs an
// automatic compaction policy into every replicated engine (with the eager
// follower defaults), the journals converge under the configured ratio
// while replication is live, and the compacted platform restarts warm.
func TestPlatformCompactRatioBoundsJournal(t *testing.T) {
	dir := t.TempDir()
	const ratio = 2
	cfg := Config{
		Marketplaces: 1, BuyerServers: 2,
		StateDir: dir, CompactRatio: ratio, Products: demoProducts(),
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			p.Close()
		}
	}()

	// A community fat enough that repeated overwrite rounds push every
	// engine's journal past the follower policy's minimum size.
	profiles := make([]*profile.Profile, 0, 300)
	for i := 0; i < 300; i++ {
		pr := profile.NewProfile(fmt.Sprintf("user-%03d", i))
		for _, prod := range demoProducts() {
			if err := pr.Observe(prod.Evidence(profile.BehaviourBuy)); err != nil {
				t.Fatal(err)
			}
		}
		profiles = append(profiles, pr)
	}
	for round := 0; round < 8; round++ {
		if err := p.SeedCommunity(profiles, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Compaction runs asynchronously; keep a trickle of writes flowing (as
	// any live platform has) until both engines report a bounded journal.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := p.SeedCommunity(profiles[:8], nil); err != nil {
			t.Fatal(err)
		}
		done := true
		for _, e := range engines(p) {
			st := e.Stats()
			if st.Compactions == 0 || float64(st.JournalBytes) > ratio*float64(st.LiveBytes) {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			for i, e := range engines(p) {
				t.Logf("engine %d stats: %+v", i, e.Stats())
			}
			t.Fatal("engine journals never converged under Config.CompactRatio")
		}
	}

	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	closed = true

	// The compacted journals still recover the full community.
	p2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for i, e := range engines(p2) {
		if got := e.Stats().Users; got != len(profiles) {
			t.Errorf("engine %d recovered %d users, want %d", i, got, len(profiles))
		}
	}
}
