package buyerserver

import (
	"errors"
	"strings"
	"testing"

	"agentrec/internal/aglet"
	"agentrec/internal/catalog"
	"agentrec/internal/marketplace"
	"agentrec/internal/profile"
)

// Message-level robustness: every resident agent rejects unknown kinds and
// garbage payloads with a descriptive error instead of crashing.
func TestAgentsRejectBadMessages(t *testing.T) {
	m := newMechanism(t, 1)
	m.user(t, "alice")
	ctx := testCtx(t)

	cases := []struct {
		agent string
		msg   aglet.Message
		want  string
	}{
		{BSMAID, aglet.Message{Kind: "dance"}, "does not understand"},
		{BSMAID, aglet.Message{Kind: kindRegister, Data: []byte("{")}, "bad register"},
		{BSMAID, aglet.Message{Kind: kindLogin, Data: []byte("{")}, "bad login"},
		{BSMAID, aglet.Message{Kind: kindLogout, Data: []byte("{")}, "bad logout"},
		{BSMAID, aglet.Message{Kind: kindTask, Data: []byte("{")}, "bad task"},
		{BSMAID, aglet.Message{Kind: kindMBAHome, Data: []byte("{")}, "bad mba-home"},
		{BSMAID, aglet.Message{Kind: kindMBAHome, Data: []byte(`{"spec":[]}`)}, "bad mba-home"},
		{PAID, aglet.Message{Kind: "dance"}, "does not understand"},
		{PAID, aglet.Message{Kind: kindObserve, Data: []byte("{")}, "bad observe"},
		{HttpAID, aglet.Message{Kind: "dance"}, "does not understand"},
		{HttpAID, aglet.Message{Kind: kindHTTPTask, Data: []byte("{")}, "bad http-task"},
		{braID("alice"), aglet.Message{Kind: "dance"}, "does not understand"},
		{braID("alice"), aglet.Message{Kind: kindTask, Data: []byte("{")}, "bad task"},
		{braID("alice"), aglet.Message{Kind: kindTaskDone, Data: []byte("{")}, "bad task-complete"},
		{braID("alice"), aglet.Message{Kind: kindTaskDone, Data: []byte(`{"results":{}}`)}, "bad task-complete"},
	}
	for _, tc := range cases {
		_, err := m.srv.Host().Send(ctx, tc.agent, tc.msg)
		if err == nil {
			t.Errorf("%s accepted %q with payload %q", tc.agent, tc.msg.Kind, tc.msg.Data)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s/%s error = %q, want containing %q", tc.agent, tc.msg.Kind, err, tc.want)
		}
	}
}

func TestMBARejectsNonEmbark(t *testing.T) {
	reg := aglet.NewRegistry()
	RegisterMBAType(reg)
	host := aglet.NewHost("h", reg)
	defer host.Close()
	init := []byte(`{"user_id":"u","spec":{"task_id":"t","kind":"query"},"itinerary":{"stops":[],"home":"h","index":0}}`)
	if _, err := host.Create("mba", "m", init); err != nil {
		t.Fatal(err)
	}
	if _, err := host.Send(testCtx(t), "m", aglet.Message{Kind: "poke"}); err == nil {
		t.Fatal("MBA accepted unknown kind")
	}
}

func TestTaskForUnknownUser(t *testing.T) {
	m := newMechanism(t, 1)
	_, err := m.srv.Query(testCtx(t), "stranger", catalog.Query{Category: "laptop"})
	if !errors.Is(err, ErrNotLoggedIn) {
		t.Fatalf("err = %v", err)
	}
}

func TestObserveBatchForBuyMarksOnlyPurchasedProduct(t *testing.T) {
	sale := &marketplace.Sale{Receipt: "r", ProductID: "p1", BuyerID: "u", PriceCents: 1}
	st := mbaState{
		mbaHeader: mbaHeader{UserID: "u", Spec: TaskSpec{TaskID: "t", Kind: TaskBuy, ProductID: "p1"}},
		Sale:      sale,
		Results: []MarketResult{
			{
				Market: "m1",
				Matches: []catalog.Match{
					{Product: &catalog.Product{ID: "p1", Category: "c", Terms: map[string]float64{"x": 1}}},
				},
				Sale: sale,
			},
			{
				Market: "m2",
				Matches: []catalog.Match{
					{Product: &catalog.Product{ID: "p1", Category: "c", Terms: map[string]float64{"x": 1}}},
				},
				// visited but did not sell
			},
		},
	}
	batch := observeBatchFor(st, "buy", 13)
	if len(batch.Events) != 2 {
		t.Fatalf("events = %d", len(batch.Events))
	}
	var buys, queries int
	for _, ev := range batch.Events {
		switch ev.Evidence.Behaviour {
		case profile.BehaviourBuy:
			buys++
			if ev.Sale == nil {
				t.Error("buy event without sale")
			}
		case profile.BehaviourQuery:
			queries++
			if ev.Sale != nil {
				t.Error("query event with sale")
			}
		}
	}
	if buys != 1 || queries != 1 {
		t.Errorf("buys=%d queries=%d, want 1/1", buys, queries)
	}
}

func TestObserveBatchForQueryUsesQueryTerms(t *testing.T) {
	st := mbaState{mbaHeader: mbaHeader{
		UserID: "u",
		Spec: TaskSpec{
			TaskID: "t", Kind: TaskQuery,
			Query: catalog.Query{Category: "laptop", SubCategory: "notebook", Terms: []string{"ssd", "light"}},
		},
	}}
	batch := observeBatchFor(st, "query", 14)
	if len(batch.Events) != 1 {
		t.Fatalf("events = %d", len(batch.Events))
	}
	ev := batch.Events[0].Evidence
	if ev.Category != "laptop" || ev.SubCategory != "notebook" {
		t.Errorf("evidence = %+v", ev)
	}
	if ev.Terms["ssd"] != 1 || ev.Terms["light"] != 1 {
		t.Errorf("terms = %v", ev.Terms)
	}
	if ev.Behaviour != profile.BehaviourQuery {
		t.Errorf("behaviour = %v", ev.Behaviour)
	}
}

func TestObserveBatchForAuctionUsesBidBehaviour(t *testing.T) {
	st := mbaState{
		mbaHeader: mbaHeader{UserID: "u", Spec: TaskSpec{TaskID: "t", Kind: TaskAuction, AuctionID: "a"}},
		Results: []MarketResult{{
			Market: "m1",
			Matches: []catalog.Match{
				{Product: &catalog.Product{ID: "p", Category: "c", Terms: map[string]float64{"x": 1}}},
			},
		}},
	}
	batch := observeBatchFor(st, "buy", 13)
	if len(batch.Events) != 1 || batch.Events[0].Evidence.Behaviour != profile.BehaviourBid {
		t.Fatalf("batch = %+v", batch)
	}
}

func TestNextBid(t *testing.T) {
	tests := []struct {
		name   string
		status marketplace.AuctionStatus
		budget int64
		want   int64
	}{
		{"fresh with reserve", marketplace.AuctionStatus{ReserveCents: 5000}, 10000, 5000},
		{"fresh no reserve", marketplace.AuctionStatus{}, 10000, 100},
		{"outbid within budget", marketplace.AuctionStatus{HighBid: 10000}, 20000, 10500},
		{"small high bid uses min increment", marketplace.AuctionStatus{HighBid: 500}, 20000, 600},
		{"over budget", marketplace.AuctionStatus{HighBid: 19990}, 20000, 0},
		{"reserve over budget", marketplace.AuctionStatus{ReserveCents: 30000}, 20000, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := nextBid(tt.status, tt.budget); got != tt.want {
				t.Errorf("nextBid = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestAuctionBidViaMechanismOnClosedAuction(t *testing.T) {
	m := newMechanism(t, 1)
	m.user(t, "alice")
	aucID, err := m.markets[0].AuctionOpen("market-1:cam1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.markets[0].AuctionClose(aucID); err != nil {
		t.Fatal(err)
	}
	// The MBA reports the closed auction's status without erroring out.
	res, err := m.srv.Bid(testCtx(t), "alice", "market-1", aucID, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0].Auction == nil || !res.Results[0].Auction.Closed {
		t.Fatalf("result = %+v", res.Results[0])
	}
}

func TestBuyUnknownProductReportsPerMarketError(t *testing.T) {
	m := newMechanism(t, 2)
	m.user(t, "alice")
	res, err := m.srv.Buy(testCtx(t), "alice", "no-such-product", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sale != nil {
		t.Fatal("bought a nonexistent product")
	}
	for _, mr := range res.Results {
		if mr.Err == "" {
			t.Errorf("market %s reported no error", mr.Market)
		}
	}
}
