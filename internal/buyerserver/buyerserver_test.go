package buyerserver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"agentrec/internal/aglet"
	"agentrec/internal/catalog"
	"agentrec/internal/coordinator"
	"agentrec/internal/marketplace"
	"agentrec/internal/profile"
	"agentrec/internal/recommend"
	"agentrec/internal/trace"
)

// mechanism is a full single-process platform slice: coordinator, N
// marketplaces with stocked catalogs, and one buyer agent server created
// through the Fig 4.1 admission workflow.
type mechanism struct {
	lb      *aglet.Loopback
	coord   *coordinator.Coordinator
	markets []*marketplace.Server
	srv     *Server
	tracer  *trace.Recorder
}

func marketProducts(seller string) []*catalog.Product {
	return []*catalog.Product{
		{ID: seller + ":lap1", Name: "UltraBook", Category: "laptop",
			Terms: map[string]float64{"ssd": 1, "light": 0.8}, PriceCents: 100000, SellerID: seller, Stock: 5},
		{ID: seller + ":lap2", Name: "GameBook", Category: "laptop",
			Terms: map[string]float64{"gpu": 1, "ssd": 0.4}, PriceCents: 150000, SellerID: seller, Stock: 5},
		{ID: seller + ":cam1", Name: "Shooter", Category: "camera",
			Terms: map[string]float64{"lens": 1}, PriceCents: 50000, SellerID: seller, Stock: 5},
	}
}

func newMechanism(t testing.TB, nMarkets int, opts ...Option) *mechanism {
	t.Helper()
	return newMechanismOver(t, nMarkets, nil, opts...)
}

// newMechanismOver is newMechanism with the engine opened under engOpts as
// well as the default neighbourhood size.
func newMechanismOver(t testing.TB, nMarkets int, engOpts []recommend.Option, opts ...Option) *mechanism {
	t.Helper()
	m := &mechanism{lb: aglet.NewLoopback(), tracer: trace.New()}

	coordReg := aglet.NewRegistry()
	coordHost := aglet.NewHost("coord", coordReg)
	m.lb.Attach(coordHost)
	t.Cleanup(func() { coordHost.Close() })
	coord, err := coordinator.New(coordHost, coordReg, coordinator.WithTracer(m.tracer))
	if err != nil {
		t.Fatal(err)
	}
	m.coord = coord

	// The engine sees the union of all marketplace merchandise, as the
	// platform's integrated catalog would.
	union := catalog.New()
	var marketNames []string
	for i := 0; i < nMarkets; i++ {
		name := fmt.Sprintf("market-%d", i+1)
		reg := aglet.NewRegistry()
		RegisterMBAType(reg)
		host := aglet.NewHost(name, reg)
		m.lb.Attach(host)
		t.Cleanup(func() { host.Close() })
		cat := catalog.New()
		for _, p := range marketProducts(name) {
			if err := cat.Add(p); err != nil {
				t.Fatal(err)
			}
			if err := union.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		mp, err := marketplace.NewServer(host, cat, reg)
		if err != nil {
			t.Fatal(err)
		}
		m.markets = append(m.markets, mp)
		marketNames = append(marketNames, name)
		coord.Register(coordinator.Registration{Kind: coordinator.KindMarketplace, Name: name, Addr: name})
	}

	buyerReg := aglet.NewRegistry()
	buyerHost := aglet.NewHost("buyer-server", buyerReg)
	m.lb.Attach(buyerHost)
	engine, err := recommend.Open(union, append([]recommend.Option{recommend.WithNeighbors(5)}, engOpts...)...)
	if err != nil {
		t.Fatal(err)
	}
	caProxy := buyerHost.RemoteProxy("coord", coordinator.CAID)
	allOpts := append([]Option{
		WithTracer(m.tracer),
		WithMarkets(marketNames...),
	}, opts...)
	srv, err := New(buyerHost, buyerReg, engine, caProxy, allOpts...)
	if err != nil {
		t.Fatal(err)
	}
	m.srv = srv
	t.Cleanup(func() { srv.Close() })
	return m
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// register + login a user, failing the test on error.
func (m *mechanism) user(t testing.TB, id string) {
	t.Helper()
	ctx := context.Background()
	if err := m.srv.Register(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := m.srv.Login(ctx, id); err != nil {
		t.Fatal(err)
	}
}

// --- F4.1: creation workflow -------------------------------------------

func TestCreationWorkflow(t *testing.T) {
	m := newMechanism(t, 1)
	if err := m.tracer.Verify("creation", CreationWorkflow); err != nil {
		t.Fatalf("Fig 4.1 conformance: %v\ntranscript:\n%s", err, m.tracer.Transcript("creation"))
	}
	// The coordinator's directory lists the new buyer server.
	entries := m.coord.Lookup(coordinator.KindBuyerServer)
	if len(entries) != 1 || entries[0].Addr != "buyer-server" {
		t.Errorf("directory = %+v", entries)
	}
}

// Every Buyer Agent Server is created through Fig 4.1: without a
// Coordinator Agent to admit it no BSMA arrives, so New refuses.
func TestNewRequiresCoordinator(t *testing.T) {
	reg := aglet.NewRegistry()
	host := aglet.NewHost("lonely", reg)
	defer host.Close()
	if _, err := New(host, reg, recommend.NewEngine(catalog.New()), nil); err == nil {
		t.Fatal("New without a coordinator succeeded")
	}
}

// --- F3.2: mechanism architecture ----------------------------------------

func TestMechanismArchitecture(t *testing.T) {
	m := newMechanism(t, 1)
	for _, id := range []string{BSMAID, PAID, HttpAID} {
		if !m.srv.Host().Has(id) {
			t.Errorf("agent %q missing from mechanism", id)
		}
	}
}

// --- account lifecycle ----------------------------------------------------

func TestRegisterLoginLogout(t *testing.T) {
	m := newMechanism(t, 1)
	ctx := testCtx(t)

	// A community profile from before the account: registering replaces
	// it with a fresh one.
	seeded := profile.NewProfile("alice")
	if err := seeded.Observe(profile.Evidence{Category: "camera", Terms: map[string]float64{"lens": 1}, Behaviour: profile.BehaviourBuy}); err != nil {
		t.Fatal(err)
	}
	if err := m.srv.Engine().SetProfile(seeded); err != nil {
		t.Fatal(err)
	}
	if err := m.srv.Register(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if p, err := m.srv.Engine().Profile("alice"); err != nil || p.Observed != 0 || len(p.Categories) != 0 {
		t.Errorf("community profile after Register = %+v, %v; want a fresh one", p, err)
	}
	// Registration does not create a BRA (§4.1 principle 1).
	if m.srv.Host().Has(braID("alice")) || m.srv.Host().HasStored(braID("alice")) {
		t.Error("BRA exists before login")
	}
	if err := m.srv.Register(ctx, "alice"); !errors.Is(err, ErrUserExists) {
		t.Errorf("second register: %v", err)
	}

	inbox, err := m.srv.Login(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(inbox) != 0 {
		t.Errorf("fresh inbox = %v", inbox)
	}
	if !m.srv.Host().Has(braID("alice")) {
		t.Fatal("login did not create BRA")
	}
	if _, err := m.srv.Login(ctx, "alice"); !errors.Is(err, ErrAlreadyOnline) {
		t.Errorf("double login: %v", err)
	}

	if err := m.srv.Logout(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if m.srv.Host().Has(braID("alice")) {
		t.Error("BRA survived logout")
	}
	if err := m.srv.Logout(ctx, "alice"); !errors.Is(err, ErrNotLoggedIn) {
		t.Errorf("double logout: %v", err)
	}
}

func TestLoginUnknownUser(t *testing.T) {
	m := newMechanism(t, 1)
	if _, err := m.srv.Login(testCtx(t), "nobody"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("err = %v", err)
	}
}

// --- F4.2: merchandise query workflow -------------------------------------

func TestQueryWorkflow(t *testing.T) {
	m := newMechanism(t, 1)
	m.user(t, "alice")
	m.tracer.Reset() // drop creation/login noise; conformance wants one clean run

	res, err := m.srv.Query(testCtx(t), "alice", catalog.Query{Category: "laptop", Terms: []string{"ssd"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 1 || res.Results[0].Market != "market-1" {
		t.Fatalf("results = %+v", res.Results)
	}
	if len(res.Results[0].Matches) == 0 {
		t.Fatal("no matches from marketplace")
	}
	if err := m.tracer.Verify("query", QueryWorkflow); err != nil {
		t.Fatalf("Fig 4.2 conformance: %v\ntranscript:\n%s", err, m.tracer.Transcript("query"))
	}
	// The BRA is active again after the trip.
	if !m.srv.Host().Has(braID("alice")) {
		t.Error("BRA not reactivated after query")
	}
	// The profile learned from the query.
	p, err := m.srv.Engine().Profile("alice")
	if err != nil {
		t.Fatal(err)
	}
	if p.Observed == 0 || p.PreferenceValue("laptop") <= 0 {
		t.Errorf("profile did not learn from query: observed=%d", p.Observed)
	}
}

func TestQueryRequiresLogin(t *testing.T) {
	m := newMechanism(t, 1)
	if err := m.srv.Register(context.Background(), "bob"); err != nil {
		t.Fatal(err)
	}
	_, err := m.srv.Query(testCtx(t), "bob", catalog.Query{Category: "laptop"})
	if !errors.Is(err, ErrNotLoggedIn) {
		t.Fatalf("err = %v", err)
	}
}

func TestQueryNoMarkets(t *testing.T) {
	m := newMechanism(t, 0)
	m.user(t, "alice")
	_, err := m.srv.Query(testCtx(t), "alice", catalog.Query{Category: "laptop"})
	if !errors.Is(err, ErrNoMarkets) {
		t.Fatalf("err = %v", err)
	}
}

// --- F4.3: buy workflow ----------------------------------------------------

func TestBuyWorkflow(t *testing.T) {
	m := newMechanism(t, 1)
	m.user(t, "alice")
	m.tracer.Reset()

	res, err := m.srv.Buy(testCtx(t), "alice", "market-1:lap1", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sale == nil || res.Sale.PriceCents != 100000 || res.Sale.BuyerID != "alice" {
		t.Fatalf("sale = %+v", res.Sale)
	}
	if err := m.tracer.Verify("buy", BuyWorkflow); err != nil {
		t.Fatalf("Fig 4.3 conformance: %v\ntranscript:\n%s", err, m.tracer.Transcript("buy"))
	}
	// Stock decremented at the marketplace.
	p, _ := m.markets[0].Catalog().Get("market-1:lap1")
	if p.Stock != 4 {
		t.Errorf("stock = %d, want 4", p.Stock)
	}
	// Purchase reached the engine (CF history) and UserDB (transactions).
	if recs, _ := m.srv.Engine().Recommend(recommend.StrategyTopSeller, "", "", 5); len(recs) == 0 {
		t.Error("purchase not recorded in engine")
	}
	txns, err := m.srv.userDB.Scan(bucketTxns, "alice/")
	if err != nil || len(txns) != 1 {
		t.Errorf("transactions = %v, %v", txns, err)
	}
}

func TestNegotiatedBuy(t *testing.T) {
	m := newMechanism(t, 1)
	m.user(t, "alice")

	// Budget above the floor (85000) but below list: the MBA haggles.
	res, err := m.srv.Buy(testCtx(t), "alice", "market-1:lap1", 95000, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sale == nil {
		t.Fatalf("no sale: %+v", res.Results)
	}
	if res.Sale.PriceCents > 95000 {
		t.Errorf("paid %d over budget", res.Sale.PriceCents)
	}
	if res.Sale.Via != "negotiation" {
		t.Errorf("via = %s", res.Sale.Via)
	}
}

func TestNegotiatedBuyBelowFloorFails(t *testing.T) {
	m := newMechanism(t, 1)
	m.user(t, "alice")
	res, err := m.srv.Buy(testCtx(t), "alice", "market-1:lap1", 60000, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sale != nil {
		t.Fatalf("deal below seller floor: %+v", res.Sale)
	}
}

func TestBuyChoosesFirstAffordableMarket(t *testing.T) {
	m := newMechanism(t, 3)
	m.user(t, "alice")
	// Make market-1's copy unaffordable; market-2 should win.
	m.markets[0].Catalog().Upsert(&catalog.Product{
		ID: "market-1:lap1", Name: "UltraBook", Category: "laptop",
		Terms: map[string]float64{"ssd": 1}, PriceCents: 999999, SellerID: "market-1", Stock: 5,
	})
	res, err := m.srv.RunTask(testCtx(t), "alice", TaskSpec{
		Kind: TaskBuy, ProductID: "market-1:lap1", BudgetCents: 100, // no market sells this cheap
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sale != nil {
		t.Fatalf("bought above budget: %+v", res.Sale)
	}
	// All three markets visited (no early exit without a purchase).
	if len(res.Results) != 3 {
		t.Errorf("visited %d markets, want 3", len(res.Results))
	}
}

// --- auction -----------------------------------------------------------------

func TestAuctionWorkflow(t *testing.T) {
	m := newMechanism(t, 1)
	m.user(t, "alice")
	m.user(t, "bob")

	aucID, err := m.markets[0].AuctionOpen("market-1:cam1", 40000)
	if err != nil {
		t.Fatal(err)
	}
	// Alice bids via the mechanism.
	res, err := m.srv.Bid(testCtx(t), "alice", "market-1", aucID, 60000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0].Auction == nil || res.Results[0].Auction.HighBidder != "alice" {
		t.Fatalf("auction result = %+v", res.Results[0])
	}
	// Bob outbids.
	res, err = m.srv.Bid(testCtx(t), "bob", "market-1", aucID, 60000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0].Auction.HighBidder != "bob" {
		t.Fatalf("auction result = %+v", res.Results[0].Auction)
	}
	// Seller closes: bob wins.
	st, err := m.markets[0].AuctionClose(aucID)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Sold || st.Sale.BuyerID != "bob" {
		t.Errorf("close = %+v", st)
	}
}

// --- C1: multi-marketplace itinerary ---------------------------------------

func TestMultiMarketItinerary(t *testing.T) {
	m := newMechanism(t, 4)
	m.user(t, "alice")
	res, err := m.srv.Query(testCtx(t), "alice", catalog.Query{Category: "laptop"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 4 {
		t.Fatalf("MBA visited %d marketplaces, want 4", len(res.Results))
	}
	seen := map[string]bool{}
	for _, mr := range res.Results {
		seen[mr.Market] = true
		if len(mr.Matches) == 0 {
			t.Errorf("no matches from %s", mr.Market)
		}
	}
	if len(seen) != 4 {
		t.Errorf("markets visited: %v", seen)
	}
	// §5.1 capability 3: information collected from more than two
	// marketplaces in one trip.
	if len(seen) <= 2 {
		t.Error("claim C1 violated")
	}
}

// --- C7: BRA deactivate/activate around the MBA trip -------------------------

func TestDeactivateActivate(t *testing.T) {
	m := newMechanism(t, 2)
	m.user(t, "alice")
	m.lb.SetPerHop(func(string) { time.Sleep(30 * time.Millisecond) })
	defer m.lb.SetPerHop(nil)

	done := make(chan error, 1)
	go func() {
		_, err := m.srv.Query(testCtx(t), "alice", catalog.Query{Category: "laptop"})
		done <- err
	}()

	// While the MBA is away the BRA must be parked in storage, not live.
	sawParked := false
	deadline := time.After(5 * time.Second)
	for !sawParked {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			t.Fatal("task finished before BRA was ever observed parked")
		case <-deadline:
			t.Fatal("BRA never parked")
		case <-time.After(time.Millisecond):
			if m.srv.Host().HasStored(braID("alice")) && !m.srv.Host().Has(braID("alice")) {
				sawParked = true
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// And live again afterwards.
	if !m.srv.Host().Has(braID("alice")) {
		t.Error("BRA not reactivated after trip")
	}
}

// --- C3: offline completion ---------------------------------------------------

func TestOfflineCompletion(t *testing.T) {
	m := newMechanism(t, 2)
	m.user(t, "alice")
	m.lb.SetPerHop(func(string) { time.Sleep(30 * time.Millisecond) })
	defer m.lb.SetPerHop(nil)

	done := make(chan TaskResult, 1)
	go func() {
		res, err := m.srv.Buy(testCtx(t), "alice", "market-2:cam1", 0, false)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	// Wait until the BRA is parked (task underway), then log out.
	deadline := time.After(5 * time.Second)
	for !m.srv.Host().HasStored(braID("alice")) {
		select {
		case <-deadline:
			t.Fatal("task never started")
		case <-time.After(time.Millisecond):
		}
	}
	if err := m.srv.Logout(context.Background(), "alice"); err != nil {
		t.Fatal(err)
	}

	res := <-done
	if res.Sale == nil {
		t.Fatal("offline task did not complete the purchase")
	}
	// The result waits in the inbox for the next login.
	inbox, err := m.srv.Login(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(inbox) != 1 || inbox[0].Sale == nil || inbox[0].Sale.ProductID != "market-2:cam1" {
		t.Fatalf("inbox = %+v", inbox)
	}
	// Profile still learned from the offline purchase.
	p, err := m.srv.Engine().Profile("alice")
	if err != nil {
		t.Fatal(err)
	}
	if p.PreferenceValue("camera") <= 0 {
		t.Error("offline purchase did not update profile")
	}
}

// --- MBA authentication (§4.1 principle 2) ----------------------------------

// withTokenTTL bounds the MBA travel tokens the server issues by ttl
// instead of mbaTokenTTL.
func withTokenTTL(ttl time.Duration) Option {
	return func(s *Server) { s.tokenTTL = ttl }
}

func TestMBAAuthRejectedOnExpiredToken(t *testing.T) {
	m := newMechanism(t, 1, withTokenTTL(time.Nanosecond))
	m.user(t, "alice")
	_, err := m.srv.Query(testCtx(t), "alice", catalog.Query{Category: "laptop"})
	if !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("err = %v, want ErrAuthFailed", err)
	}
	// The BSMDB records the rejection.
	entries, err := m.srv.bsmDB.Scan(bucketMBAs, "")
	if err != nil || len(entries) != 1 {
		t.Fatalf("mba records = %v, %v", entries, err)
	}
	var rec MBARecord
	if err := m.srv.bsmDB.DecodeJSON(bucketMBAs, entries[0].Key, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Status != "rejected" {
		t.Errorf("status = %s, want rejected", rec.Status)
	}
}

// --- recommendations from community activity ---------------------------------

func TestCommunityRecommendations(t *testing.T) {
	m := newMechanism(t, 1)
	m.user(t, "alice")
	m.user(t, "bob")
	ctx := testCtx(t)

	// Both query ssd laptops (shared taste); bob also buys lap2.
	if _, err := m.srv.Query(ctx, "alice", catalog.Query{Category: "laptop", Terms: []string{"ssd"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.srv.Query(ctx, "bob", catalog.Query{Category: "laptop", Terms: []string{"ssd"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.srv.Buy(ctx, "bob", "market-1:lap2", 0, false); err != nil {
		t.Fatal(err)
	}

	// Alice's next query should surface bob's purchase among the
	// recommendations (collaborative filtering through profile similarity).
	res, err := m.srv.Query(ctx, "alice", catalog.Query{Category: "laptop", Terms: []string{"ssd"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recommendations) == 0 {
		t.Fatal("no recommendations generated")
	}
	found := false
	for _, r := range res.Recommendations {
		if r.ProductID == "market-1:lap2" {
			found = true
		}
	}
	if !found {
		t.Errorf("neighbour's purchase not recommended: %+v", res.Recommendations)
	}
}

// --- C6: agent population elasticity -----------------------------------------

func TestAgentChurn(t *testing.T) {
	m := newMechanism(t, 1)
	ctx := context.Background()
	baseline := len(m.srv.Host().Agents())
	for i := 0; i < 30; i++ {
		user := fmt.Sprintf("u%02d", i)
		if err := m.srv.Register(ctx, user); err != nil {
			t.Fatal(err)
		}
		if _, err := m.srv.Login(ctx, user); err != nil {
			t.Fatal(err)
		}
		if _, err := m.srv.Query(testCtx(t), user, catalog.Query{Category: "laptop"}); err != nil {
			t.Fatal(err)
		}
		if err := m.srv.Logout(ctx, user); err != nil {
			t.Fatal(err)
		}
	}
	// Returning MBAs dispose themselves asynchronously after delivering;
	// wait for quiescence before counting.
	deadline := time.After(5 * time.Second)
	for len(m.srv.Host().Agents()) != baseline {
		select {
		case <-deadline:
			t.Fatalf("agents leaked: %v live, baseline %d", m.srv.Host().Agents(), baseline)
		case <-time.After(time.Millisecond):
		}
	}
}

func TestConcurrentUsers(t *testing.T) {
	m := newMechanism(t, 2)
	ctx := context.Background()
	const users = 8
	for i := 0; i < users; i++ {
		m.user(t, fmt.Sprintf("u%d", i))
	}
	var wg sync.WaitGroup
	for i := 0; i < users; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			user := fmt.Sprintf("u%d", i)
			for j := 0; j < 3; j++ {
				if _, err := m.srv.Query(testCtx(t), user, catalog.Query{Category: "laptop"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	_ = ctx
}

// TestUnreachableMarketplaceSkipped injects a dead host into the itinerary:
// the MBA records the failure for that stop and finishes the rest of the
// trip rather than stranding (DispatchFailureHandler behaviour).
func TestUnreachableMarketplaceSkipped(t *testing.T) {
	m := newMechanism(t, 3)
	m.user(t, "alice")
	// market-2 vanishes from the network.
	m.lb.Detach("market-2")

	res, err := m.srv.Query(testCtx(t), "alice", catalog.Query{Category: "laptop"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 3 {
		t.Fatalf("results = %d, want 3 (2 visited + 1 failed)", len(res.Results))
	}
	byMarket := map[string]MarketResult{}
	for _, mr := range res.Results {
		byMarket[mr.Market] = mr
	}
	if byMarket["market-2"].Err == "" {
		t.Errorf("dead market has no error: %+v", byMarket["market-2"])
	}
	if len(byMarket["market-1"].Matches) == 0 || len(byMarket["market-3"].Matches) == 0 {
		t.Error("live markets not visited after the failure")
	}
}

// TestTrendingAndTiedSalesThroughWorkflows drives purchases through the
// full agent workflows and reads the §5.2 extension features back.
func TestTrendingAndTiedSalesThroughWorkflows(t *testing.T) {
	m := newMechanism(t, 1)
	ctx := testCtx(t)
	m.user(t, "alice")
	m.user(t, "bob")

	for _, user := range []string{"alice", "bob"} {
		if _, err := m.srv.Buy(ctx, user, "market-1:lap1", 0, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.srv.Buy(ctx, "alice", "market-1:cam1", 0, false); err != nil {
		t.Fatal(err)
	}

	trending := m.srv.Engine().Trending(time.Now(), time.Hour, 5)
	if len(trending) == 0 || trending[0].ProductID != "market-1:lap1" {
		t.Errorf("trending = %+v, want lap1 hottest", trending)
	}
	ties := m.srv.Engine().TiedSales("market-1:lap1", 1, 5)
	if len(ties) != 1 || ties[0].ProductID != "market-1:cam1" {
		t.Errorf("tied sales = %+v, want cam1", ties)
	}
	// Half of lap1's buyers also bought cam1.
	if ties[0].Confidence != 0.5 {
		t.Errorf("confidence = %v, want 0.5", ties[0].Confidence)
	}
}
