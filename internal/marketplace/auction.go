package marketplace

import (
	"fmt"
)

// Auctions are English (ascending, open-cry): bids must strictly exceed the
// current high bid and meet the reserve; when the auction closes the high
// bidder wins at their bid. Closing is explicit (by the seller or the
// platform's auction scheduler) so tests and experiments are deterministic.

// AuctionOpenRequest opens an auction for a product.
type AuctionOpenRequest struct {
	ProductID    string `json:"product_id"`
	ReserveCents int64  `json:"reserve_cents"`
}

// AuctionOpenReply carries the new auction id.
type AuctionOpenReply struct {
	AuctionID string `json:"auction_id"`
}

// AuctionBidRequest places a bid.
type AuctionBidRequest struct {
	AuctionID   string `json:"auction_id"`
	BidderID    string `json:"bidder_id"`
	AmountCents int64  `json:"amount_cents"`
}

// AuctionCloseRequest closes or inspects an auction.
type AuctionCloseRequest struct {
	AuctionID string `json:"auction_id"`
}

// AuctionStatus reports the public state of an auction.
type AuctionStatus struct {
	AuctionID    string `json:"auction_id"`
	ProductID    string `json:"product_id"`
	ReserveCents int64  `json:"reserve_cents"`
	HighBid      int64  `json:"high_bid"`
	HighBidder   string `json:"high_bidder"`
	Bids         int    `json:"bids"`
	Closed       bool   `json:"closed"`
	Sold         bool   `json:"sold"`
	Sale         *Sale  `json:"sale,omitempty"`
}

// Auction is the internal auction state.
type Auction struct {
	id         string
	productID  string
	reserve    int64
	highBid    int64
	highBidder string
	bids       int
	closed     bool
	sold       bool
	sale       *Sale
}

func (a *Auction) status() AuctionStatus {
	st := AuctionStatus{
		AuctionID:    a.id,
		ProductID:    a.productID,
		ReserveCents: a.reserve,
		HighBid:      a.highBid,
		HighBidder:   a.highBidder,
		Bids:         a.bids,
		Closed:       a.closed,
		Sold:         a.sold,
	}
	if a.sale != nil {
		sale := *a.sale
		st.Sale = &sale
	}
	return st
}

// AuctionOpen opens an English auction for one unit of productID with the
// given reserve price (0 = no reserve).
func (s *Server) AuctionOpen(productID string, reserveCents int64) (string, error) {
	p, err := s.cat.Get(productID)
	if err != nil {
		return "", fmt.Errorf("%w: %s", ErrNotFound, productID)
	}
	if p.Stock <= 0 {
		return "", fmt.Errorf("%w: %s", ErrSoldOut, productID)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextAuc++
	a := &Auction{
		id:        fmt.Sprintf("auc-%06d", s.nextAuc),
		productID: productID,
		reserve:   reserveCents,
	}
	s.auctions[a.id] = a
	return a.id, nil
}

// AuctionBid places a bid: it must strictly exceed the current high bid and
// meet the reserve.
func (s *Server) AuctionBid(auctionID, bidderID string, amountCents int64) (AuctionStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.auctions[auctionID]
	if !ok {
		return AuctionStatus{}, fmt.Errorf("%w: %s", ErrNoAuction, auctionID)
	}
	if a.closed {
		return a.status(), fmt.Errorf("%w: %s", ErrAuctionClosed, auctionID)
	}
	if amountCents < a.reserve {
		return a.status(), fmt.Errorf("%w: bid %d, reserve %d", ErrBelowReserve, amountCents, a.reserve)
	}
	if amountCents <= a.highBid {
		return a.status(), fmt.Errorf("%w: bid %d, high %d", ErrBidTooLow, amountCents, a.highBid)
	}
	a.highBid = amountCents
	a.highBidder = bidderID
	a.bids++
	return a.status(), nil
}

// AuctionClose ends the auction. If there is a high bidder the product is
// sold to them at the high bid.
func (s *Server) AuctionClose(auctionID string) (AuctionStatus, error) {
	s.mu.Lock()
	a, ok := s.auctions[auctionID]
	if !ok {
		s.mu.Unlock()
		return AuctionStatus{}, fmt.Errorf("%w: %s", ErrNoAuction, auctionID)
	}
	if a.closed {
		st := a.status()
		s.mu.Unlock()
		return st, fmt.Errorf("%w: %s", ErrAuctionClosed, auctionID)
	}
	a.closed = true
	winner := a.highBidder
	price := a.highBid
	productID := a.productID
	s.mu.Unlock()

	if winner == "" {
		s.mu.Lock()
		st := a.status()
		s.mu.Unlock()
		return st, nil
	}
	if _, err := s.cat.AdjustStock(productID, -1); err != nil {
		return AuctionStatus{}, fmt.Errorf("%w: %s", ErrSoldOut, productID)
	}
	sale := s.recordSale(productID, winner, price, "auction")
	s.mu.Lock()
	a.sold = true
	a.sale = &sale
	st := a.status()
	s.mu.Unlock()
	return st, nil
}

// AuctionStatus reports the state of an auction without changing it.
func (s *Server) AuctionStatus(auctionID string) (AuctionStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.auctions[auctionID]
	if !ok {
		return AuctionStatus{}, fmt.Errorf("%w: %s", ErrNoAuction, auctionID)
	}
	return a.status(), nil
}
