package buyerserver

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"agentrec/internal/aglet"
	"agentrec/internal/catalog"
	"agentrec/internal/coordinator"
	"agentrec/internal/marketplace"
	"agentrec/internal/profile"
)

// wireCase is one request to a resident agent and what must come back: the
// reply kind and payload bytes, or an error matching err with errors.Is.
// An empty reply with no err is a payload-free acknowledgement.
type wireCase struct {
	host  *aglet.Host
	agent string
	kind  string
	req   any    // the typed request a sender encodes ...
	wire  string // ... and the bytes it must encode to
	reply string // the reply kind, a space, the reply payload
	err   error
}

// TestAgentWireGolden pins the agent plane's bytes: for every kind the CA,
// MSA, BSMA, BRA, PA and HttpA answer, the request bytes a sender puts on
// the wire, the reply kind, and the reply bytes or error sentinel. The
// cases run in order against one mechanism, so ids and stock advance
// deterministically from case to case.
func TestAgentWireGolden(t *testing.T) {
	m := newMechanism(t, 1)
	auth, err := coordinator.NewOwnershipAuthority(coordinator.OwnershipConfig{Shards: 2, Servers: 1, LeaseTTL: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	m.coord.AttachOwnership(auth)
	destReg := aglet.NewRegistry()
	destReg.Register(coordinator.BSMAType, func() aglet.Aglet { return &coordinator.GenericBSMA{} })
	dest := aglet.NewHost("golden-dest", destReg)
	t.Cleanup(func() { dest.Close() })
	m.lb.Attach(dest)

	ca, msa, buyer := m.coord.Host(), m.markets[0].Host(), m.srv.Host()
	bra := braID("gold")
	queryTask := func(taskID string) TaskSpec {
		return TaskSpec{TaskID: taskID, Kind: TaskQuery, Query: catalog.Query{Category: "camera"}, Markets: []string{"market-1"}}
	}
	cam := `{"id":"market-1:cam1","name":"Shooter","category":"camera","terms":{"lens":1},"price_cents":50000,"seller_id":"market-1","stock":`
	done := m.srv.registerPending("golden-1")

	cases := []wireCase{
		// CA
		{ca, coordinator.CAID, coordinator.KindRegister,
			coordinator.Registration{Kind: coordinator.KindSeller, Name: "s1", Addr: "s1"},
			`{"kind":"seller","name":"s1","addr":"s1"}`, `register {"ok":true}`, nil},
		{ca, coordinator.CAID, coordinator.KindRegister,
			coordinator.Registration{Kind: "alien", Name: "x", Addr: "x"},
			`{"kind":"alien","name":"x","addr":"x"}`, "", coordinator.ErrUnknownKind},
		{ca, coordinator.CAID, coordinator.KindLookup,
			coordinator.LookupRequest{Kind: coordinator.KindSeller},
			`{"kind":"seller"}`, `lookup {"entries":[{"kind":"seller","name":"s1","addr":"s1"}]}`, nil},
		{ca, coordinator.CAID, coordinator.KindAdmit,
			coordinator.AdmitRequest{Name: "golden-dest", Addr: "golden-dest"},
			`{"name":"golden-dest","addr":"golden-dest"}`, `admit-buyer-server {"ok":true}`, nil},
		{ca, coordinator.CAID, coordinator.KindLease,
			coordinator.LeaseRequest{Server: 0},
			`{"server":0}`, `ownership-lease {"map":{"epoch":1,"assign":[0,0]},"ttl_ms":3000}`, nil},

		// MSA
		{msa, marketplace.MSAID, marketplace.KindQuery,
			marketplace.QueryRequest{Query: catalog.Query{Category: "camera"}},
			`{"query":{"category":"camera"}}`, `query {"market":"market-1","matches":[{"Product":` + cam + `5},"Score":0}]}`, nil},
		{msa, marketplace.MSAID, marketplace.KindGet,
			marketplace.GetRequest{ProductID: "market-1:cam1"},
			`{"product_id":"market-1:cam1"}`, `get {"product":` + cam + `5}}`, nil},
		{msa, marketplace.MSAID, marketplace.KindGet,
			marketplace.GetRequest{ProductID: "nope"},
			`{"product_id":"nope"}`, "", marketplace.ErrNotFound},
		{msa, marketplace.MSAID, marketplace.KindBuy,
			marketplace.BuyRequest{BuyerID: "b", ProductID: "market-1:cam1"},
			`{"buyer_id":"b","product_id":"market-1:cam1","max_price_cents":0}`,
			`buy {"sale":{"receipt":"market-1-rcpt-000001","product_id":"market-1:cam1","buyer_id":"b","price_cents":50000,"via":"buy"}}`, nil},
		{msa, marketplace.MSAID, marketplace.KindBuy,
			marketplace.BuyRequest{BuyerID: "b", ProductID: "market-1:cam1", MaxPriceCents: 1},
			`{"buyer_id":"b","product_id":"market-1:cam1","max_price_cents":1}`, "", marketplace.ErrTooExpensive},
		{msa, marketplace.MSAID, marketplace.KindNegoOpen,
			marketplace.NegoOpenRequest{BuyerID: "b", ProductID: "market-1:lap1", OfferCents: 70000},
			`{"buyer_id":"b","product_id":"market-1:lap1","offer_cents":70000}`,
			`nego-open {"session_id":"nego-000001","accepted":false,"price_cents":0,"ask_cents":91000,"round":1,"over":false}`, nil},
		{msa, marketplace.MSAID, marketplace.KindNegoOffer,
			marketplace.NegoOfferRequest{SessionID: "nego-000001", OfferCents: 91000},
			`{"session_id":"nego-000001","offer_cents":91000}`,
			`nego-offer {"session_id":"nego-000001","accepted":true,"price_cents":91000,"ask_cents":0,"round":2,"over":true,` +
				`"sale":{"receipt":"market-1-rcpt-000002","product_id":"market-1:lap1","buyer_id":"b","price_cents":91000,"via":"negotiation"}}`, nil},
		{msa, marketplace.MSAID, marketplace.KindNegoOffer,
			marketplace.NegoOfferRequest{SessionID: "nego-000001", OfferCents: 1},
			`{"session_id":"nego-000001","offer_cents":1}`, "", marketplace.ErrSessionOver},
		{msa, marketplace.MSAID, marketplace.KindNegoOffer,
			marketplace.NegoOfferRequest{SessionID: "nope", OfferCents: 1},
			`{"session_id":"nope","offer_cents":1}`, "", marketplace.ErrNoSession},
		{msa, marketplace.MSAID, marketplace.KindAuctionOpen,
			marketplace.AuctionOpenRequest{ProductID: "market-1:cam1", ReserveCents: 1000},
			`{"product_id":"market-1:cam1","reserve_cents":1000}`, `auction-open {"auction_id":"auc-000001"}`, nil},
		{msa, marketplace.MSAID, marketplace.KindAuctionBid,
			marketplace.AuctionBidRequest{AuctionID: "auc-000001", BidderID: "b", AmountCents: 500},
			`{"auction_id":"auc-000001","bidder_id":"b","amount_cents":500}`, "", marketplace.ErrBelowReserve},
		{msa, marketplace.MSAID, marketplace.KindAuctionBid,
			marketplace.AuctionBidRequest{AuctionID: "auc-000001", BidderID: "b", AmountCents: 2000},
			`{"auction_id":"auc-000001","bidder_id":"b","amount_cents":2000}`,
			`auction-bid {"auction_id":"auc-000001","product_id":"market-1:cam1","reserve_cents":1000,"high_bid":2000,"high_bidder":"b","bids":1,"closed":false,"sold":false}`, nil},
		{msa, marketplace.MSAID, marketplace.KindAuctionState,
			marketplace.AuctionCloseRequest{AuctionID: "auc-000001"},
			`{"auction_id":"auc-000001"}`,
			`auction-status {"auction_id":"auc-000001","product_id":"market-1:cam1","reserve_cents":1000,"high_bid":2000,"high_bidder":"b","bids":1,"closed":false,"sold":false}`, nil},
		{msa, marketplace.MSAID, marketplace.KindAuctionClose,
			marketplace.AuctionCloseRequest{AuctionID: "auc-000001"},
			`{"auction_id":"auc-000001"}`,
			`auction-close {"auction_id":"auc-000001","product_id":"market-1:cam1","reserve_cents":1000,"high_bid":2000,"high_bidder":"b","bids":1,"closed":true,"sold":true,` +
				`"sale":{"receipt":"market-1-rcpt-000003","product_id":"market-1:cam1","buyer_id":"b","price_cents":2000,"via":"auction"}}`, nil},
		{msa, marketplace.MSAID, marketplace.KindAuctionClose,
			marketplace.AuctionCloseRequest{AuctionID: "auc-000001"},
			`{"auction_id":"auc-000001"}`, "", marketplace.ErrAuctionClosed},
		{msa, marketplace.MSAID, marketplace.KindAuctionState,
			marketplace.AuctionCloseRequest{AuctionID: "nope"},
			`{"auction_id":"nope"}`, "", marketplace.ErrNoAuction},

		// BSMA
		{buyer, BSMAID, kindRegister, userReq{UserID: "gold"}, `{"user_id":"gold"}`, "ok ", nil},
		{buyer, BSMAID, kindRegister, userReq{UserID: "gold"}, `{"user_id":"gold"}`, "", ErrUserExists},
		{buyer, BSMAID, kindLogin, userReq{UserID: "nobody"}, `{"user_id":"nobody"}`, "", ErrUnknownUser},
		{buyer, BSMAID, kindLogin, userReq{UserID: "gold"}, `{"user_id":"gold"}`, "login {}", nil},
		{buyer, BSMAID, kindLogin, userReq{UserID: "gold"}, `{"user_id":"gold"}`, "", ErrAlreadyOnline},
		{buyer, BSMAID, kindTask, taskReq{UserID: "nobody", Spec: queryTask("golden-0")},
			`{"user_id":"nobody","spec":{"task_id":"golden-0","kind":"query","query":{"category":"camera"},"markets":["market-1"]}}`,
			"", ErrNotLoggedIn},
		{buyer, BSMAID, kindTask, taskReq{UserID: "gold", Spec: queryTask("golden-1")},
			`{"user_id":"gold","spec":{"task_id":"golden-1","kind":"query","query":{"category":"camera"},"markets":["market-1"]}}`,
			`task {"task_id":"golden-1","mba_id":"mba:golden-1"}`, nil},
		{buyer, BSMAID, kindMBAHome,
			mbaHeader{UserID: "gold", Spec: TaskSpec{TaskID: "golden-x", Kind: TaskQuery}, Token: "forged", Nonce: "n", Response: "r"},
			`{"user_id":"gold","spec":{"task_id":"golden-x","kind":"query","query":{}},"token":"forged","nonce":"n","response":"r"}`,
			`mba-home {"accepted":false}`, nil},
	}
	runWire(t, cases)

	// The query task above travels, comes home, and is answered.
	select {
	case res := <-done:
		if res.AuthFailed || len(res.Results) != 1 || len(res.Results[0].Matches) != 1 {
			t.Fatalf("golden-1 came home as %+v", res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("golden-1 never came home")
	}

	// An intact homecoming carries this server's credentials, which are
	// fresh per dispatch; the frame is pinned around them.
	id := mbaID("golden-2")
	nonce, err := m.srv.challenger.Challenge(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.srv.bsmDB.EncodeJSON(bucketMBAs, id, MBARecord{MBAID: id, TaskID: "golden-2", UserID: "gold", Kind: string(TaskQuery)}); err != nil {
		t.Fatal(err)
	}
	token := m.srv.tokens.Issue(id, string(TaskQuery), time.Hour)
	home := strings.NewReplacer("$TOKEN", token, "$NONCE", nonce, "$RESPONSE", m.srv.challenger.Respond(nonce, id)).Replace(
		`{"user_id":"gold","spec":{"task_id":"golden-2","kind":"query","query":{}},"token":"$TOKEN","nonce":"$NONCE","response":"$RESPONSE","itinerary":{"stops":[],"home":"buyer-server","index":0}}`)
	st := mbaState{
		mbaHeader: mbaHeader{UserID: "gold", Spec: TaskSpec{TaskID: "golden-2", Kind: TaskQuery}, Token: token, Nonce: nonce,
			Response: m.srv.challenger.Respond(nonce, id)},
		It: aglet.Itinerary{Stops: []string{}, Home: "buyer-server"},
	}

	runWire(t, []wireCase{
		{buyer, BSMAID, kindMBAHome, st, home, `mba-home {"accepted":true}`, nil},

		// BRA
		{buyer, bra, kindTask, taskReq{UserID: "gold", Spec: queryTask("golden-3")},
			`{"user_id":"gold","spec":{"task_id":"golden-3","kind":"query","query":{"category":"camera"},"markets":["market-1"]}}`,
			`task {"task_id":"golden-3","mba_id":"mba:golden-3"}`, nil},
		{buyer, bra, kindTaskDone,
			mbaState{mbaHeader: mbaHeader{UserID: "gold", Spec: TaskSpec{TaskID: "golden-4", Kind: TaskBuy}}, It: aglet.Itinerary{Home: "buyer-server"}},
			`{"user_id":"gold","spec":{"task_id":"golden-4","kind":"buy","query":{}},"token":"","nonce":"","response":"","itinerary":{"stops":null,"home":"buyer-server","index":0}}`,
			"ok ", nil},

		// PA
		{buyer, PAID, kindObserve,
			observeBatch{UserID: "gold", Events: []observeEvent{{Evidence: profile.Evidence{Category: "camera", Terms: map[string]float64{"lens": 1}, Behaviour: profile.BehaviourQuery}}}, Workflow: "query"},
			`{"user_id":"gold","events":[{"evidence":{"Category":"camera","Terms":{"lens":1},"SubCategory":"","SubTerms":null,"Behaviour":1,"At":"0001-01-01T00:00:00Z"}}],"workflow":"query","step":0}`,
			"ok ", nil},

		// HttpA: tasks enter here; account kinds pass through to the BSMA.
		{buyer, HttpAID, kindHTTPTask, taskReq{UserID: "nobody", Spec: queryTask("golden-5")},
			`{"user_id":"nobody","spec":{"task_id":"golden-5","kind":"query","query":{"category":"camera"},"markets":["market-1"]}}`,
			"", ErrNotLoggedIn},
		{buyer, HttpAID, kindRegister, userReq{UserID: "gold"}, `{"user_id":"gold"}`, "", ErrUserExists},

		// BSMA, last: logging out disposes the BRA.
		{buyer, BSMAID, kindLogout, userReq{UserID: "gold"}, `{"user_id":"gold"}`, "ok ", nil},
		{buyer, BSMAID, kindLogout, userReq{UserID: "gold"}, `{"user_id":"gold"}`, "", ErrNotLoggedIn},
	})
}

func runWire(t *testing.T, cases []wireCase) {
	t.Helper()
	for _, tc := range cases {
		data, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != tc.wire {
			t.Errorf("%s %s request encodes as\n%s\nwant\n%s", tc.agent, tc.kind, data, tc.wire)
		}
		reply, err := tc.host.Send(testCtx(t), tc.agent, aglet.Message{Kind: tc.kind, Data: []byte(tc.wire)})
		switch {
		case tc.err != nil:
			if !errors.Is(err, tc.err) {
				t.Errorf("%s %s %s: err = %v, want %v", tc.agent, tc.kind, tc.wire, err, tc.err)
			}
		case err != nil:
			t.Errorf("%s %s %s: %v", tc.agent, tc.kind, tc.wire, err)
		default:
			if got := reply.Kind + " " + string(reply.Data); got != tc.reply {
				t.Errorf("%s %s %s: reply\n%s\nwant\n%s", tc.agent, tc.kind, tc.wire, got, tc.reply)
			}
			if tc.reply == "ok " && reply.Data != nil {
				t.Errorf("%s %s: acknowledgement carries %q", tc.agent, tc.kind, reply.Data)
			}
		}
	}
}
