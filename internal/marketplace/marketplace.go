// Package marketplace implements the paper's Marketplace server (§3.2
// item 2): "a place that lets the Mobile Agent of the Buyer and the Mobile
// Agent of the Seller trade with each other", providing "kinds of trading
// services such as: information query, negotiations, and auctions."
//
// A Server owns a product catalog and exposes the three trading services.
// Its public face inside the agent world is the Marketplace Server Agent
// (MSA, visible in Fig 3.1): an aglet with the well-known id "msa" that
// visiting Mobile Buyer Agents message after migrating in. Every service is
// also available as a direct method for tests and for the conventional-RPC
// baseline of experiment C2.
package marketplace

import (
	"errors"
	"fmt"
	"sync"

	"agentrec/internal/aglet"
	"agentrec/internal/catalog"
)

// MSAID is the well-known agent id of the Marketplace Server Agent.
const MSAID = "msa"

// Errors reported by the trading services.
var (
	ErrNotFound      = errors.New("marketplace: product not found")
	ErrSoldOut       = errors.New("marketplace: sold out")
	ErrTooExpensive  = errors.New("marketplace: price above buyer maximum")
	ErrNoSession     = errors.New("marketplace: no such negotiation session")
	ErrSessionOver   = errors.New("marketplace: negotiation already concluded")
	ErrNoAuction     = errors.New("marketplace: no such auction")
	ErrAuctionClosed = errors.New("marketplace: auction closed")
	ErrBidTooLow     = errors.New("marketplace: bid not above current high bid")
	ErrBelowReserve  = errors.New("marketplace: bid below reserve")
)

// Server is one marketplace. Construct with NewServer. All methods are safe
// for concurrent use.
type Server struct {
	host *aglet.Host
	cat  *catalog.Catalog

	mu       sync.Mutex
	negos    map[string]*negoSession
	auctions map[string]*Auction
	nextNego int
	nextAuc  int
	nextRcpt int
	salesLog []Sale
}

// Sale records one completed transaction, however it was reached.
type Sale struct {
	Receipt    string `json:"receipt"`
	ProductID  string `json:"product_id"`
	BuyerID    string `json:"buyer_id"`
	PriceCents int64  `json:"price_cents"`
	Via        string `json:"via"` // "buy", "negotiation", "auction"
}

// NewServer creates a marketplace over cat and installs its MSA on host.
// The MSA factory is registered on host's registry under a host-unique type
// name, so multiple marketplaces can share one registry.
func NewServer(host *aglet.Host, cat *catalog.Catalog, reg *aglet.Registry) (*Server, error) {
	s := &Server{
		host:     host,
		cat:      cat,
		negos:    make(map[string]*negoSession),
		auctions: make(map[string]*Auction),
	}
	typeName := "msa:" + host.Name()
	h := s.msaHandlers()
	reg.Register(typeName, func() aglet.Aglet { return &msaAgent{h: h} })
	if _, err := host.Create(typeName, MSAID, nil); err != nil {
		return nil, fmt.Errorf("marketplace: creating MSA on %s: %w", host.Name(), err)
	}
	return s, nil
}

// Host returns the aglet host the marketplace runs on.
func (s *Server) Host() *aglet.Host { return s.host }

// Catalog returns the marketplace's catalog.
func (s *Server) Catalog() *catalog.Catalog { return s.cat }

// Query answers a merchandise search.
func (s *Server) Query(q catalog.Query) []catalog.Match {
	return s.cat.Search(q)
}

// Buy purchases one unit of productID at list price if it does not exceed
// maxPriceCents (0 = unbounded), returning the sale record.
func (s *Server) Buy(buyerID, productID string, maxPriceCents int64) (Sale, error) {
	p, err := s.cat.Get(productID)
	if err != nil {
		return Sale{}, fmt.Errorf("%w: %s", ErrNotFound, productID)
	}
	if maxPriceCents > 0 && p.PriceCents > maxPriceCents {
		return Sale{}, fmt.Errorf("%w: %s costs %d, max %d", ErrTooExpensive, productID, p.PriceCents, maxPriceCents)
	}
	if _, err := s.cat.AdjustStock(productID, -1); err != nil {
		return Sale{}, fmt.Errorf("%w: %s", ErrSoldOut, productID)
	}
	return s.recordSale(productID, buyerID, p.PriceCents, "buy"), nil
}

func (s *Server) recordSale(productID, buyerID string, price int64, via string) Sale {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextRcpt++
	sale := Sale{
		Receipt:    fmt.Sprintf("%s-rcpt-%06d", s.host.Name(), s.nextRcpt),
		ProductID:  productID,
		BuyerID:    buyerID,
		PriceCents: price,
		Via:        via,
	}
	s.salesLog = append(s.salesLog, sale)
	return sale
}

// Sales returns a copy of the sales log.
func (s *Server) Sales() []Sale {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sale, len(s.salesLog))
	copy(out, s.salesLog)
	return out
}

// --- MSA: the agent face of the services ---

// Message kinds the MSA understands.
const (
	KindQuery        = "query"
	KindGet          = "get"
	KindBuy          = "buy"
	KindNegoOpen     = "nego-open"
	KindNegoOffer    = "nego-offer"
	KindAuctionOpen  = "auction-open"
	KindAuctionBid   = "auction-bid"
	KindAuctionClose = "auction-close"
	KindAuctionState = "auction-status"
)

// QueryRequest asks for merchandise matching Query.
type QueryRequest struct {
	Query catalog.Query `json:"query"`
}

// QueryReply carries the matches.
type QueryReply struct {
	Market  string          `json:"market"`
	Matches []catalog.Match `json:"matches"`
}

// GetRequest fetches one product by id.
type GetRequest struct {
	ProductID string `json:"product_id"`
}

// GetReply carries the product.
type GetReply struct {
	Product *catalog.Product `json:"product"`
}

// BuyRequest purchases a product.
type BuyRequest struct {
	BuyerID       string `json:"buyer_id"`
	ProductID     string `json:"product_id"`
	MaxPriceCents int64  `json:"max_price_cents"`
}

// BuyReply reports the sale.
type BuyReply struct {
	Sale Sale `json:"sale"`
}

// msaAgent is the Server's agent face. It never migrates; it answers
// through the table msaHandlers builds over the server.
type msaAgent struct {
	aglet.Base
	h aglet.Handlers
}

func (a *msaAgent) HandleMessage(ctx *aglet.Context, msg aglet.Message) (aglet.Message, error) {
	return a.h.Handle(ctx, msg)
}

// msaHandlers is the MSA's message table: each kind calls the Server method
// it names.
func (s *Server) msaHandlers() aglet.Handlers {
	h := aglet.Handlers{}
	aglet.On(h, KindQuery, func(_ *aglet.Context, req QueryRequest) (QueryReply, error) {
		return QueryReply{Market: s.host.Name(), Matches: s.Query(req.Query)}, nil
	})
	aglet.On(h, KindGet, func(_ *aglet.Context, req GetRequest) (GetReply, error) {
		p, err := s.cat.Get(req.ProductID)
		if err != nil {
			return GetReply{}, fmt.Errorf("%w: %s", ErrNotFound, req.ProductID)
		}
		return GetReply{Product: p}, nil
	})
	aglet.On(h, KindBuy, func(_ *aglet.Context, req BuyRequest) (BuyReply, error) {
		sale, err := s.Buy(req.BuyerID, req.ProductID, req.MaxPriceCents)
		return BuyReply{Sale: sale}, err
	})
	aglet.On(h, KindNegoOpen, func(_ *aglet.Context, req NegoOpenRequest) (NegoReply, error) {
		return s.NegotiateOpen(req.BuyerID, req.ProductID, req.OfferCents)
	})
	aglet.On(h, KindNegoOffer, func(_ *aglet.Context, req NegoOfferRequest) (NegoReply, error) {
		return s.NegotiateOffer(req.SessionID, req.OfferCents)
	})
	aglet.On(h, KindAuctionOpen, func(_ *aglet.Context, req AuctionOpenRequest) (AuctionOpenReply, error) {
		id, err := s.AuctionOpen(req.ProductID, req.ReserveCents)
		return AuctionOpenReply{AuctionID: id}, err
	})
	aglet.On(h, KindAuctionBid, func(_ *aglet.Context, req AuctionBidRequest) (AuctionStatus, error) {
		return s.AuctionBid(req.AuctionID, req.BidderID, req.AmountCents)
	})
	aglet.On(h, KindAuctionClose, func(_ *aglet.Context, req AuctionCloseRequest) (AuctionStatus, error) {
		return s.AuctionClose(req.AuctionID)
	})
	// Status takes the same request shape as close: just the id.
	aglet.On(h, KindAuctionState, func(_ *aglet.Context, req AuctionCloseRequest) (AuctionStatus, error) {
		return s.AuctionStatus(req.AuctionID)
	})
	return h
}
