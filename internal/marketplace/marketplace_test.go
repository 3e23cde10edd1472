package marketplace

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"agentrec/internal/aglet"
	"agentrec/internal/catalog"
)

func testServer(t testing.TB) (*Server, *aglet.Host) {
	t.Helper()
	reg := aglet.NewRegistry()
	host := aglet.NewHost("market-1", reg)
	t.Cleanup(func() { host.Close() })

	cat := catalog.New()
	products := []*catalog.Product{
		{ID: "lap1", Name: "UltraBook", Category: "laptop", Terms: map[string]float64{"ssd": 1, "light": 0.8}, PriceCents: 100000, SellerID: "s1", Stock: 3},
		{ID: "lap2", Name: "GameBook", Category: "laptop", Terms: map[string]float64{"gpu": 1}, PriceCents: 150000, SellerID: "s1", Stock: 1},
		{ID: "cam1", Name: "Shooter", Category: "camera", Terms: map[string]float64{"lens": 1}, PriceCents: 50000, SellerID: "s2", Stock: 2},
	}
	for _, p := range products {
		if err := cat.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServer(host, cat, reg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, host
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestQueryService(t *testing.T) {
	srv, _ := testServer(t)
	got := srv.Query(catalog.Query{Category: "laptop", Terms: []string{"ssd"}})
	if len(got) != 1 || got[0].Product.ID != "lap1" {
		t.Fatalf("Query = %+v", got)
	}
}

func TestBuyHappyPath(t *testing.T) {
	srv, _ := testServer(t)
	sale, err := srv.Buy("buyer-1", "lap1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if sale.PriceCents != 100000 || sale.Via != "buy" || sale.Receipt == "" {
		t.Errorf("sale = %+v", sale)
	}
	p, _ := srv.Catalog().Get("lap1")
	if p.Stock != 2 {
		t.Errorf("stock after buy = %d", p.Stock)
	}
	if len(srv.Sales()) != 1 {
		t.Errorf("sales log = %v", srv.Sales())
	}
}

func TestBuyErrors(t *testing.T) {
	srv, _ := testServer(t)
	if _, err := srv.Buy("b", "ghost", 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing product: %v", err)
	}
	if _, err := srv.Buy("b", "lap1", 1); !errors.Is(err, ErrTooExpensive) {
		t.Errorf("max price: %v", err)
	}
	// Exhaust lap2 (stock 1), then buy again.
	if _, err := srv.Buy("b", "lap2", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Buy("b", "lap2", 0); !errors.Is(err, ErrSoldOut) {
		t.Errorf("sold out: %v", err)
	}
}

func TestNegotiationLowballGetsCounter(t *testing.T) {
	srv, _ := testServer(t)
	// lap1 lists at 100000, floor 85000. Open at 50000: counter expected.
	rep, err := srv.NegotiateOpen("buyer-1", "lap1", 50000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted {
		t.Fatal("lowball accepted")
	}
	if rep.AskCents >= 100000 || rep.AskCents < 85000 {
		t.Errorf("counter = %d, want in [85000, 100000)", rep.AskCents)
	}
}

func TestNegotiationConvergesToDeal(t *testing.T) {
	srv, _ := testServer(t)
	rep, err := srv.NegotiateOpen("buyer-1", "lap1", 50000)
	if err != nil {
		t.Fatal(err)
	}
	offer := int64(50000)
	for !rep.Over {
		offer = BuyerNextOffer(offer, rep.AskCents, 100000)
		rep, err = srv.NegotiateOffer(rep.SessionID, offer)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !rep.Accepted {
		t.Fatalf("negotiation never settled: %+v", rep)
	}
	if rep.PriceCents < 85000 || rep.PriceCents > 100000 {
		t.Errorf("deal price = %d, want within [floor, list]", rep.PriceCents)
	}
	if rep.Sale == nil || rep.Sale.Via != "negotiation" {
		t.Errorf("sale = %+v", rep.Sale)
	}
	p, _ := srv.Catalog().Get("lap1")
	if p.Stock != 2 {
		t.Errorf("stock after negotiated sale = %d", p.Stock)
	}
}

func TestNegotiationGenerousOfferCappedAtAsk(t *testing.T) {
	srv, _ := testServer(t)
	rep, err := srv.NegotiateOpen("buyer-1", "lap1", 120000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted {
		t.Fatal("above-list offer not accepted")
	}
	if rep.PriceCents != 100000 {
		t.Errorf("price = %d, want capped at list 100000", rep.PriceCents)
	}
}

func TestNegotiationSessionErrors(t *testing.T) {
	srv, _ := testServer(t)
	if _, err := srv.NegotiateOffer("nope", 1); !errors.Is(err, ErrNoSession) {
		t.Errorf("unknown session: %v", err)
	}
	rep, _ := srv.NegotiateOpen("b", "lap1", 200000) // instantly accepted
	if _, err := srv.NegotiateOffer(rep.SessionID, 1); !errors.Is(err, ErrSessionOver) {
		t.Errorf("concluded session: %v", err)
	}
	if _, err := srv.NegotiateOpen("b", "ghost", 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown product: %v", err)
	}
}

func TestNegotiationRoundLimit(t *testing.T) {
	srv, _ := testServer(t)
	rep, err := srv.NegotiateOpen("cheapskate", "lap1", 1)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 1
	for !rep.Over {
		rep, err = srv.NegotiateOffer(rep.SessionID, 1) // never budges
		if err != nil {
			t.Fatal(err)
		}
		rounds++
		if rounds > maxNegoRounds+1 {
			t.Fatal("session exceeded round limit")
		}
	}
	if rep.Accepted {
		t.Error("1-cent offer accepted")
	}
}

func TestHaggleToBudgetSucceedsWithinBudget(t *testing.T) {
	srv, _ := testServer(t)
	rep, err := srv.HaggleToBudget("buyer-1", "lap1", 95000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted {
		t.Fatalf("haggle failed: %+v", rep)
	}
	if rep.PriceCents > 95000 {
		t.Errorf("paid %d over budget 95000", rep.PriceCents)
	}
}

func TestHaggleToBudgetFailsBelowFloor(t *testing.T) {
	srv, _ := testServer(t)
	// Floor is 85000; budget 60000 can never close.
	rep, err := srv.HaggleToBudget("buyer-1", "lap1", 60000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted {
		t.Fatalf("deal below floor: %+v", rep)
	}
	p, _ := srv.Catalog().Get("lap1")
	if p.Stock != 3 {
		t.Errorf("stock changed on failed haggle: %d", p.Stock)
	}
}

func TestAuctionLifecycle(t *testing.T) {
	srv, _ := testServer(t)
	id, err := srv.AuctionOpen("cam1", 40000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AuctionBid(id, "alice", 30000); !errors.Is(err, ErrBelowReserve) {
		t.Errorf("below reserve: %v", err)
	}
	st, err := srv.AuctionBid(id, "alice", 41000)
	if err != nil {
		t.Fatal(err)
	}
	if st.HighBidder != "alice" {
		t.Errorf("high bidder = %s", st.HighBidder)
	}
	if _, err := srv.AuctionBid(id, "bob", 41000); !errors.Is(err, ErrBidTooLow) {
		t.Errorf("equal bid: %v", err)
	}
	st, err = srv.AuctionBid(id, "bob", 45000)
	if err != nil {
		t.Fatal(err)
	}
	st, err = srv.AuctionClose(id)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Sold || st.Sale == nil || st.Sale.BuyerID != "bob" || st.Sale.PriceCents != 45000 {
		t.Errorf("close = %+v", st)
	}
	p, _ := srv.Catalog().Get("cam1")
	if p.Stock != 1 {
		t.Errorf("stock after auction = %d", p.Stock)
	}
	// Further bids and closes fail.
	if _, err := srv.AuctionBid(id, "carol", 99999); !errors.Is(err, ErrAuctionClosed) {
		t.Errorf("bid on closed: %v", err)
	}
	if _, err := srv.AuctionClose(id); !errors.Is(err, ErrAuctionClosed) {
		t.Errorf("double close: %v", err)
	}
}

func TestAuctionNoBidsClosesUnsold(t *testing.T) {
	srv, _ := testServer(t)
	id, _ := srv.AuctionOpen("cam1", 0)
	st, err := srv.AuctionClose(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sold {
		t.Error("auction with no bids sold")
	}
	p, _ := srv.Catalog().Get("cam1")
	if p.Stock != 2 {
		t.Errorf("stock = %d", p.Stock)
	}
}

func TestAuctionErrors(t *testing.T) {
	srv, _ := testServer(t)
	if _, err := srv.AuctionOpen("ghost", 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("open unknown product: %v", err)
	}
	if _, err := srv.AuctionBid("nope", "a", 1); !errors.Is(err, ErrNoAuction) {
		t.Errorf("bid unknown auction: %v", err)
	}
	if _, err := srv.AuctionStatus("nope"); !errors.Is(err, ErrNoAuction) {
		t.Errorf("status unknown auction: %v", err)
	}
}

// --- MSA message interface ---

func msaCall(t *testing.T, host *aglet.Host, kind string, req any) aglet.Message {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := host.Send(testCtx(t), MSAID, aglet.Message{Kind: kind, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	return reply
}

func TestMSAQuery(t *testing.T) {
	_, host := testServer(t)
	reply := msaCall(t, host, KindQuery, QueryRequest{Query: catalog.Query{Category: "laptop"}})
	var qr QueryReply
	if err := json.Unmarshal(reply.Data, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Market != "market-1" || len(qr.Matches) != 2 {
		t.Errorf("reply = %+v", qr)
	}
}

func TestMSABuy(t *testing.T) {
	_, host := testServer(t)
	reply := msaCall(t, host, KindBuy, BuyRequest{BuyerID: "mba-1", ProductID: "cam1"})
	var br BuyReply
	if err := json.Unmarshal(reply.Data, &br); err != nil {
		t.Fatal(err)
	}
	if br.Sale.BuyerID != "mba-1" || br.Sale.PriceCents != 50000 {
		t.Errorf("sale = %+v", br.Sale)
	}
}

func TestMSANegotiationRoundTrip(t *testing.T) {
	_, host := testServer(t)
	reply := msaCall(t, host, KindNegoOpen, NegoOpenRequest{BuyerID: "mba-1", ProductID: "lap1", OfferCents: 90000})
	var nr NegoReply
	if err := json.Unmarshal(reply.Data, &nr); err != nil {
		t.Fatal(err)
	}
	if nr.SessionID == "" {
		t.Fatalf("reply = %+v", nr)
	}
	if !nr.Over {
		reply = msaCall(t, host, KindNegoOffer, NegoOfferRequest{SessionID: nr.SessionID, OfferCents: nr.AskCents})
		if err := json.Unmarshal(reply.Data, &nr); err != nil {
			t.Fatal(err)
		}
		if !nr.Accepted {
			t.Errorf("meeting the ask not accepted: %+v", nr)
		}
	}
}

func TestMSAAuctionFlow(t *testing.T) {
	_, host := testServer(t)
	reply := msaCall(t, host, KindAuctionOpen, AuctionOpenRequest{ProductID: "cam1", ReserveCents: 1000})
	var ar AuctionOpenReply
	if err := json.Unmarshal(reply.Data, &ar); err != nil {
		t.Fatal(err)
	}
	reply = msaCall(t, host, KindAuctionBid, AuctionBidRequest{AuctionID: ar.AuctionID, BidderID: "mba-2", AmountCents: 2000})
	var st AuctionStatus
	if err := json.Unmarshal(reply.Data, &st); err != nil {
		t.Fatal(err)
	}
	if st.HighBidder != "mba-2" {
		t.Errorf("status = %+v", st)
	}
	reply = msaCall(t, host, KindAuctionClose, AuctionCloseRequest{AuctionID: ar.AuctionID})
	if err := json.Unmarshal(reply.Data, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Sold {
		t.Errorf("close = %+v", st)
	}
}

func TestMSAUnknownKind(t *testing.T) {
	_, host := testServer(t)
	_, err := host.Send(testCtx(t), MSAID, aglet.Message{Kind: "dance"})
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestMSABadPayload(t *testing.T) {
	_, host := testServer(t)
	_, err := host.Send(testCtx(t), MSAID, aglet.Message{Kind: KindBuy, Data: []byte("not json")})
	if err == nil {
		t.Fatal("garbage payload accepted")
	}
}

func TestTwoMarketplacesShareRegistry(t *testing.T) {
	reg := aglet.NewRegistry()
	h1 := aglet.NewHost("m1", reg)
	h2 := aglet.NewHost("m2", reg)
	defer h1.Close()
	defer h2.Close()
	cat1, cat2 := catalog.New(), catalog.New()
	cat1.Add(&catalog.Product{ID: "a", Category: "c", PriceCents: 1, SellerID: "s", Stock: 1})
	cat2.Add(&catalog.Product{ID: "b", Category: "c", PriceCents: 1, SellerID: "s", Stock: 1})
	if _, err := NewServer(h1, cat1, reg); err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(h2, cat2, reg); err != nil {
		t.Fatal(err)
	}
	// Each host's MSA answers for its own catalog.
	r1 := msaCall(t, h1, KindQuery, QueryRequest{Query: catalog.Query{Category: "c"}})
	var q1 QueryReply
	json.Unmarshal(r1.Data, &q1)
	if len(q1.Matches) != 1 || q1.Matches[0].Product.ID != "a" {
		t.Errorf("m1 query = %+v", q1)
	}
}

func TestMSAGet(t *testing.T) {
	_, host := testServer(t)
	reply := msaCall(t, host, KindGet, GetRequest{ProductID: "lap1"})
	var gr GetReply
	if err := json.Unmarshal(reply.Data, &gr); err != nil {
		t.Fatal(err)
	}
	if gr.Product == nil || gr.Product.ID != "lap1" || gr.Product.PriceCents != 100000 {
		t.Errorf("get = %+v", gr.Product)
	}
	if _, err := host.Send(testCtx(t), MSAID, aglet.Message{Kind: KindGet, Data: []byte(`{"product_id":"nope"}`)}); err == nil {
		t.Error("get of missing product succeeded")
	}
}

func TestMSAAllBadPayloads(t *testing.T) {
	_, host := testServer(t)
	kinds := []string{KindQuery, KindGet, KindBuy, KindNegoOpen, KindNegoOffer,
		KindAuctionOpen, KindAuctionBid, KindAuctionClose, KindAuctionState}
	for _, kind := range kinds {
		if _, err := host.Send(testCtx(t), MSAID, aglet.Message{Kind: kind, Data: []byte("{bad")}); err == nil {
			t.Errorf("MSA accepted garbage for %q", kind)
		}
	}
}

func TestNegotiationStockExhaustionMidSession(t *testing.T) {
	srv, _ := testServer(t)
	// Open a session on lap2 (stock 1), then sell the unit out from under it.
	rep, err := srv.NegotiateOpen("slow-buyer", "lap2", 100000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted {
		t.Fatal("offer below list accepted instantly")
	}
	if _, err := srv.Buy("fast-buyer", "lap2", 0); err != nil {
		t.Fatal(err)
	}
	// Meeting the ask now fails with sold-out instead of overselling.
	if _, err := srv.NegotiateOffer(rep.SessionID, rep.AskCents); !errors.Is(err, ErrSoldOut) {
		t.Fatalf("err = %v, want ErrSoldOut", err)
	}
	p, _ := srv.Catalog().Get("lap2")
	if p.Stock != 0 {
		t.Errorf("stock = %d", p.Stock)
	}
}

// Property: whatever offers a buyer makes, an accepted deal never lands
// below the seller's floor or above the list price, and stock never goes
// negative.
func TestNegotiationPriceBoundsProperty(t *testing.T) {
	fn := func(offers []int32) bool {
		reg := aglet.NewRegistry()
		host := aglet.NewHost("m", reg)
		defer host.Close()
		cat := catalog.New()
		cat.Add(&catalog.Product{ID: "p", Category: "c", PriceCents: 100000, SellerID: "s", Stock: 1})
		srv, err := NewServer(host, cat, reg)
		if err != nil {
			return false
		}
		rep, err := srv.NegotiateOpen("b", "p", 1)
		if err != nil {
			return false
		}
		for _, raw := range offers {
			if rep.Over {
				break
			}
			offer := int64(raw)
			if offer < 0 {
				offer = -offer
			}
			rep, err = srv.NegotiateOffer(rep.SessionID, offer%200000)
			if err != nil {
				return false
			}
		}
		if rep.Accepted {
			floor := int64(0.85 * 100000)
			if rep.PriceCents < floor || rep.PriceCents > 100000 {
				return false
			}
		}
		p, _ := srv.Catalog().Get("p")
		return p.Stock >= 0
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestProbeNextOffer(t *testing.T) {
	// Probing always stays strictly below the ask and terminates.
	offer, ask := int64(50000), int64(100000)
	for i := 0; i < 100; i++ {
		next, done := ProbeNextOffer(offer, ask)
		if done {
			return
		}
		if next >= ask {
			t.Fatalf("probe offer %d >= ask %d", next, ask)
		}
		if next <= offer {
			t.Fatalf("probe did not progress: %d -> %d", offer, next)
		}
		offer = next
	}
	t.Fatal("probe never terminated")
}

func TestProbeNextOfferEdges(t *testing.T) {
	if _, done := ProbeNextOffer(10, 0); !done {
		t.Error("zero ask must end the probe")
	}
	if _, done := ProbeNextOffer(99, 100); !done {
		t.Error("one-cent gap must end the probe")
	}
}
