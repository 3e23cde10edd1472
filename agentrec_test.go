package agentrec

import (
	"context"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"agentrec/internal/recommend"
)

func demoPlatform(t *testing.T, opts ...Option) *Platform {
	t.Helper()
	products := []*Product{
		{ID: "lap1", Name: "UltraBook", Category: "laptop", Terms: map[string]float64{"ssd": 1, "light": 0.8}, PriceCents: 100000, SellerID: "s1", Stock: 5},
		{ID: "lap2", Name: "GameBook", Category: "laptop", Terms: map[string]float64{"gpu": 1, "ssd": 0.4}, PriceCents: 150000, SellerID: "s1", Stock: 5},
		{ID: "cam1", Name: "Shooter", Category: "camera", Terms: map[string]float64{"lens": 1}, PriceCents: 50000, SellerID: "s2", Stock: 5},
		{ID: "cam2", Name: "Zoomer", Category: "camera", Terms: map[string]float64{"zoom": 1, "lens": 0.5}, PriceCents: 60000, SellerID: "s2", Stock: 5},
	}
	p, err := New(append([]Option{WithMarketplaces(2), WithProducts(products...)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestQuickstartFlow(t *testing.T) {
	p := demoPlatform(t)
	ctx := testCtx(t)
	alice, err := p.NewConsumer(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	res, err := alice.Query(ctx, Query{Category: "laptop", Terms: []string{"ssd"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AllMatches()) == 0 {
		t.Fatal("query found nothing")
	}
	buy, err := alice.Buy(ctx, "lap1", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if buy.Sale == nil {
		t.Fatal("no sale")
	}
	recs, err := alice.Recommendations("laptop", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Error("no recommendations after activity")
	}
}

func TestAuctionViaFacade(t *testing.T) {
	p := demoPlatform(t)
	ctx := testCtx(t)
	alice, err := p.NewConsumer(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	// cam1 is stocked on marketplace 0 (round-robin, index 2 -> market 0).
	aucID, err := p.OpenAuction(0, "cam1", 10000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Bid(ctx, p.MarketName(0), aucID, 30000); err != nil {
		t.Fatal(err)
	}
	winner, price, sold, err := p.CloseAuction(0, aucID)
	if err != nil {
		t.Fatal(err)
	}
	if !sold || winner != "alice" || price <= 0 {
		t.Errorf("auction outcome: winner=%s price=%d sold=%v", winner, price, sold)
	}
}

func TestOfflineInboxViaFacade(t *testing.T) {
	p := demoPlatform(t)
	ctx := testCtx(t)
	alice, err := p.NewConsumer(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Query(ctx, Query{Category: "camera"}); err != nil {
		t.Fatal(err)
	}
	if err := alice.Logout(ctx); err != nil {
		t.Fatal(err)
	}
	inbox, err := alice.Login(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(inbox) != 0 {
		t.Errorf("inbox = %v, want empty (task completed before logout)", inbox)
	}
}

func TestSellerFeedViaFacade(t *testing.T) {
	p := demoPlatform(t)
	feed := `[{"sku":"N1","title":"New Thing","cat":"laptop","subcat":"",
		"keywords":["ssd"],"price_cents":80000,"qty":3}]`
	n, err := p.IntegrateJSONFeed(0, strings.NewReader(feed), "sellerX")
	if err != nil || n != 1 {
		t.Fatalf("feed: %d, %v", n, err)
	}
	ctx := testCtx(t)
	bob, err := p.NewConsumer(ctx, "bob")
	if err != nil {
		t.Fatal(err)
	}
	res, err := bob.Query(ctx, Query{Category: "laptop", Terms: []string{"ssd"}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range res.AllMatches() {
		if m.Product.ID == "sellerX:N1" {
			found = true
		}
	}
	if !found {
		t.Error("integrated seller product not found by query")
	}
}

func TestHTTPInterface(t *testing.T) {
	p := demoPlatform(t)
	ts := httptest.NewServer(p.HTTPHandler())
	defer ts.Close()

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := post("/users", `{"user_id":"carol"}`); code != 200 {
		t.Fatalf("register: %d %s", code, body)
	}
	if code, body := post("/login", `{"user_id":"carol"}`); code != 200 {
		t.Fatalf("login: %d %s", code, body)
	}
	code, body := post("/tasks", `{"user_id":"carol","spec":{"kind":"query","query":{"category":"laptop"}}}`)
	if code != 200 || !strings.Contains(body, "results") {
		t.Fatalf("task: %d %s", code, body)
	}
	resp, err := ts.Client().Get(ts.URL + "/recommendations?user=carol&category=laptop&n=5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("recommendations: %d", resp.StatusCode)
	}
	// Error paths.
	if code, _ := post("/users", `{"user_id":"carol"}`); code != 409 {
		t.Errorf("duplicate register = %d, want 409", code)
	}
	if code, _ := post("/login", `{"user_id":"ghost"}`); code != 404 {
		t.Errorf("unknown login = %d, want 404", code)
	}
	if code, _ := post("/tasks", `{}`); code != 400 {
		t.Errorf("bad task = %d, want 400", code)
	}
	if code, _ := post("/logout", `{"user_id":"carol"}`); code != 200 {
		t.Errorf("logout = %d", code)
	}
}

func TestHottestAndTiedSalesFacade(t *testing.T) {
	p := demoPlatform(t)
	ctx := testCtx(t)
	alice, err := p.NewConsumer(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Buy(ctx, "lap1", 0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Buy(ctx, "cam1", 0, false); err != nil {
		t.Fatal(err)
	}
	hot := p.Hottest(time.Now(), time.Hour, 5)
	if len(hot) != 2 {
		t.Fatalf("Hottest = %+v", hot)
	}
	ties := p.TiedSales("lap1", 1, 5)
	if len(ties) != 1 || ties[0].ProductID != "cam1" {
		t.Fatalf("TiedSales = %+v", ties)
	}
}

func TestHTTPTrendingAndTiedSales(t *testing.T) {
	p := demoPlatform(t)
	ctx := testCtx(t)
	alice, err := p.NewConsumer(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Buy(ctx, "lap1", 0, false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p.HTTPHandler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/trending?window=1h&n=5")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 4096)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body[:n]), "lap1") {
		t.Errorf("trending: %d %s", resp.StatusCode, body[:n])
	}

	resp, err = ts.Client().Get(ts.URL + "/tiedsales?product=lap1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("tiedsales: %d", resp.StatusCode)
	}
	// Bad parameters rejected.
	resp, _ = ts.Client().Get(ts.URL + "/trending?window=banana")
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("bad window = %d, want 400", resp.StatusCode)
	}
	resp, _ = ts.Client().Get(ts.URL + "/tiedsales")
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("missing product = %d, want 400", resp.StatusCode)
	}
	// The three listing routes share one ?n= parser.
	for _, path := range []string{"/trending?n=0", "/tiedsales?product=lap1&n=many", "/recommendations?user=alice&n=-1"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("%s = %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestWithStateDirSurvivesRestart exercises the public durability option:
// a platform reopened on the same state dir still knows the consumer and
// their community-derived recommendations.
func TestWithStateDirSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := testCtx(t)

	p := demoPlatform(t, WithStateDir(dir))
	alice, err := p.NewConsumer(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Buy(ctx, "lap1", 0, false); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := demoPlatform(t, WithStateDir(dir))
	// Account and profile are durable: login works without registration.
	if _, err := p2.Internal().Buyer().Login(ctx, "alice"); err != nil {
		t.Fatalf("login after restart: %v", err)
	}
	prof, err := p2.Internal().Engine.Profile("alice")
	if err != nil {
		t.Fatalf("profile lost across restart: %v", err)
	}
	if len(prof.Categories) == 0 {
		t.Error("recovered profile is empty")
	}
	if !p2.Internal().Engine.Snapshot().Purchases("alice")["lap1"] {
		t.Error("purchase lost across restart")
	}
}

// TestDeploymentOptionsTogether boots every deployment option README
// documents at once — two replicated buyer servers under elastic
// ownership, a shard count, durable state with automatic compaction, and
// the event plane — and runs the quickstart flow on it.
func TestDeploymentOptionsTogether(t *testing.T) {
	const shards = 4
	p := demoPlatform(t,
		WithBuyerServers(2),
		WithElasticOwnership(0),
		WithEngineShards(shards),
		WithStateDir(t.TempDir()),
		WithCompaction(2),
		WithEvents(time.Hour),
	)
	ctx := testCtx(t)
	for i := range 2 {
		for p.Internal().Replicas[i].Engine.Ownership().Expired() != nil {
			if ctx.Err() != nil {
				t.Fatalf("server %d lease never landed", i)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	m := p.Metrics()
	if len(m.Servers) != 2 {
		t.Fatalf("Metrics reports %d servers, want 2", len(m.Servers))
	}
	for _, sv := range m.Servers {
		if sv.Replication == nil {
			t.Errorf("server %d has no replication section", sv.Server)
		}
		if sv.Engine.Shards != shards {
			t.Errorf("server %d runs %d shards, want %d", sv.Server, sv.Engine.Shards, shards)
		}
	}

	sub, err := p.Subscribe(ctx, KindJournal)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := p.NewConsumer(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	res, err := alice.Query(ctx, Query{Category: "laptop", Terms: []string{"ssd"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AllMatches()) == 0 {
		t.Fatal("query found nothing")
	}
	buy, err := alice.Buy(ctx, "lap1", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if buy.Sale == nil {
		t.Fatal("no sale")
	}
	for {
		ev, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("no journal event for the purchase: %v", err)
		}
		if ev.Journal.Op == recommend.OpPurchase {
			break
		}
	}

	if err := p.Internal().SyncReplicas(ctx); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	replicas := p.Internal().Replicas
	hot0 := replicas[0].Engine.Trending(now, time.Hour, 5)
	if len(hot0) != 1 || hot0[0].ProductID != "lap1" {
		t.Fatalf("server 0 trending = %+v, want lap1", hot0)
	}
	if hot1 := replicas[1].Engine.Trending(now, time.Hour, 5); !reflect.DeepEqual(hot1, hot0) {
		t.Fatalf("server 1 trending = %+v, server 0 %+v", hot1, hot0)
	}
	if hot := p.Hottest(now, time.Hour, 5); !reflect.DeepEqual(hot, hot0) {
		t.Fatalf("Hottest = %+v, server 0 %+v", hot, hot0)
	}
}
