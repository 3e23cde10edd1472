package marketplace

import (
	"context"
	"encoding/json"
	"errors"
	"maps"
	"math"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"agentrec/internal/aglet"
)

// msaRequests gives, per kind the MSA answers, a fresh value of the request
// type its handler decodes.
var msaRequests = map[string]func() any{
	KindQuery:        func() any { return new(QueryRequest) },
	KindGet:          func() any { return new(GetRequest) },
	KindBuy:          func() any { return new(BuyRequest) },
	KindNegoOpen:     func() any { return new(NegoOpenRequest) },
	KindNegoOffer:    func() any { return new(NegoOfferRequest) },
	KindAuctionOpen:  func() any { return new(AuctionOpenRequest) },
	KindAuctionBid:   func() any { return new(AuctionBidRequest) },
	KindAuctionClose: func() any { return new(AuctionCloseRequest) },
	KindAuctionState: func() any { return new(AuctionCloseRequest) },
}

// msaState is everything a frame could change at a marketplace.
type msaState struct {
	stock    map[string]int
	sales    []Sale
	sessions map[string]negoSession
	auctions map[string]AuctionStatus
}

func snapshotMSA(t *testing.T, s *Server) msaState {
	t.Helper()
	st := msaState{stock: map[string]int{}, sales: s.Sales(), sessions: map[string]negoSession{}, auctions: map[string]AuctionStatus{}}
	for _, id := range []string{"lap1", "lap2", "cam1"} {
		p, err := s.cat.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		st.stock[id] = p.Stock
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, sess := range s.negos {
		st.sessions[id] = *sess
	}
	for id, a := range s.auctions {
		st.auctions[id] = a.status()
	}
	return st
}

// FuzzMSAFrames sends an arbitrary (kind, payload) frame to a live MSA.
// Any market a Mobile Buyer Agent visited can rewrite it, so the MSA's
// inputs are only as trusted as the last market. Nothing panics; a frame
// the agent-plane codec refuses — an unknown kind, or a payload that does
// not decode into the kind's request — leaves stock, sales, negotiation
// sessions and auctions as they were; and an accepted buy takes exactly
// one unit of its product and appends exactly one sale.
func FuzzMSAFrames(f *testing.F) {
	f.Add(KindQuery, []byte(`{"query":{"category":"laptop","terms":["ssd"]}}`))
	f.Add(KindGet, []byte(`{"product_id":"lap1"}`))
	f.Add(KindBuy, []byte(`{"buyer_id":"b","product_id":"cam1","max_price_cents":0}`))
	f.Add(KindNegoOpen, []byte(`{"buyer_id":"b","product_id":"lap1","offer_cents":70000}`))
	f.Add(KindNegoOffer, []byte(`{"session_id":"nego-000001","offer_cents":90000}`))
	f.Add(KindAuctionOpen, []byte(`{"product_id":"cam1","reserve_cents":1000}`))
	f.Add(KindAuctionBid, []byte(`{"auction_id":"auc-000001","bidder_id":"b","amount_cents":2000}`))
	f.Add(KindAuctionClose, []byte(`{"auction_id":"auc-000001"}`))
	f.Add(KindAuctionState, []byte(`{"auction_id":"auc-000001"}`))
	f.Add(KindBuy, []byte(`{"buyer_id":"b","product_id":"ca`))
	f.Add("dance", []byte(`{"product_id":"lap1"}`))
	f.Add(KindNegoOpen, []byte(`{"buyer_id":"b","product_id":"lap1","offer_cents":-70000}`))
	f.Add(KindNegoOffer, []byte(`{"session_id":"nego-000001","offer_cents":`+strconv.FormatInt(math.MaxInt64, 10)+`}`))

	srv, host := testServer(f)
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, kind string, payload []byte) {
		before := snapshotMSA(t, srv)
		_, err := host.Send(ctx, MSAID, aglet.Message{Kind: kind, Data: payload})
		after := snapshotMSA(t, srv)

		newReq, known := msaRequests[kind]
		var req any
		if known {
			req = newReq()
		}
		switch {
		case !known:
			if !errors.Is(err, aglet.ErrUnknownKind) {
				t.Fatalf("unknown kind %q answered with err %v", kind, err)
			}
		case json.Unmarshal(payload, req) != nil:
			if err == nil {
				t.Fatalf("%s accepted an undecodable payload %q", kind, payload)
			}
		case kind == KindBuy && err == nil:
			buy := req.(*BuyRequest)
			if got, want := after.stock[buy.ProductID], before.stock[buy.ProductID]-1; got != want {
				t.Fatalf("buy of %s left stock %d, want %d", buy.ProductID, got, want)
			}
			if len(after.sales) != len(before.sales)+1 || after.sales[len(after.sales)-1].ProductID != buy.ProductID {
				t.Fatalf("buy of %s: sales went from %d to %+v", buy.ProductID, len(before.sales), after.sales)
			}
			return
		default:
			return
		}
		if !maps.Equal(after.stock, before.stock) || !slices.Equal(after.sales, before.sales) ||
			!reflect.DeepEqual(after.sessions, before.sessions) || !reflect.DeepEqual(after.auctions, before.auctions) {
			t.Fatalf("refused %s frame %q changed the marketplace:\nbefore %+v\nafter  %+v", kind, payload, before, after)
		}
	})
}
