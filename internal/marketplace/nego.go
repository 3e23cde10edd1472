package marketplace

import (
	"fmt"
)

// Negotiation is the alternating-offers bargaining service. The seller side
// is automated with a standard concession policy:
//
//   - The seller's reserve (floor) is reserveFraction of the list price;
//     below it the seller never sells.
//   - The ask starts at list price and concedes toward the buyer's last
//     offer by concessionRate each round.
//   - An offer at or above the current ask is accepted immediately at the
//     offered price; an offer at or above the floor is accepted once the
//     conceding ask meets it.
//
// The policy is deterministic so experiments and tests are reproducible.
const (
	reserveFraction = 0.85
	concessionRate  = 0.30
	maxNegoRounds   = 16
)

// NegoOpenRequest starts a bargaining session with an opening offer.
type NegoOpenRequest struct {
	BuyerID    string `json:"buyer_id"`
	ProductID  string `json:"product_id"`
	OfferCents int64  `json:"offer_cents"`
}

// NegoOfferRequest continues a session with a new offer.
type NegoOfferRequest struct {
	SessionID  string `json:"session_id"`
	OfferCents int64  `json:"offer_cents"`
}

// NegoReply reports the seller's response to an offer.
type NegoReply struct {
	SessionID  string `json:"session_id"`
	Accepted   bool   `json:"accepted"`
	PriceCents int64  `json:"price_cents"` // final price when accepted
	AskCents   int64  `json:"ask_cents"`   // seller's counter-offer otherwise
	Round      int    `json:"round"`
	Over       bool   `json:"over"` // session ended (accepted or round limit)
	Sale       *Sale  `json:"sale,omitempty"`
}

type negoSession struct {
	id        string
	buyerID   string
	productID string
	listPrice int64
	floor     int64
	ask       int64
	round     int
	over      bool
}

// NegotiateOpen starts a session for productID with the buyer's opening
// offer and returns the seller's first response.
func (s *Server) NegotiateOpen(buyerID, productID string, offerCents int64) (NegoReply, error) {
	p, err := s.cat.Get(productID)
	if err != nil {
		return NegoReply{}, fmt.Errorf("%w: %s", ErrNotFound, productID)
	}
	if p.Stock <= 0 {
		return NegoReply{}, fmt.Errorf("%w: %s", ErrSoldOut, productID)
	}
	s.mu.Lock()
	s.nextNego++
	sess := &negoSession{
		id:        fmt.Sprintf("nego-%06d", s.nextNego),
		buyerID:   buyerID,
		productID: productID,
		listPrice: p.PriceCents,
		floor:     int64(float64(p.PriceCents) * reserveFraction),
		ask:       p.PriceCents,
	}
	s.negos[sess.id] = sess
	s.mu.Unlock()
	return s.NegotiateOffer(sess.id, offerCents)
}

// NegotiateOffer advances a session with the buyer's next offer.
func (s *Server) NegotiateOffer(sessionID string, offerCents int64) (NegoReply, error) {
	s.mu.Lock()
	sess, ok := s.negos[sessionID]
	if !ok {
		s.mu.Unlock()
		return NegoReply{}, fmt.Errorf("%w: %s", ErrNoSession, sessionID)
	}
	if sess.over {
		s.mu.Unlock()
		return NegoReply{}, fmt.Errorf("%w: %s", ErrSessionOver, sessionID)
	}
	sess.round++
	reply := NegoReply{SessionID: sess.id, Round: sess.round}

	switch {
	case offerCents >= sess.ask:
		// Deal at the buyer's offer (capped at the ask — the seller never
		// charges more than it was asking).
		price := offerCents
		if price > sess.ask {
			price = sess.ask
		}
		sess.over = true
		reply.Accepted = true
		reply.Over = true
		reply.PriceCents = price
		s.mu.Unlock()
		if _, err := s.cat.AdjustStock(sess.productID, -1); err != nil {
			return NegoReply{}, fmt.Errorf("%w: %s", ErrSoldOut, sess.productID)
		}
		sale := s.recordSale(sess.productID, sess.buyerID, price, "negotiation")
		reply.Sale = &sale
		return reply, nil
	default:
		// Concede toward the offer, never below the floor.
		concession := int64(concessionRate * float64(sess.ask-offerCents))
		sess.ask -= concession
		if sess.ask < sess.floor {
			sess.ask = sess.floor
		}
		reply.AskCents = sess.ask
		if sess.round >= maxNegoRounds {
			sess.over = true
			reply.Over = true
		}
		s.mu.Unlock()
		return reply, nil
	}
}

// HaggleToBudget is the buyer strategy Mobile Buyer Agents use, driven by
// direct calls: open at 70% of list (capped at budgetCents), then follow
// BuyerNextOffer within budget. It returns the final reply, accepted or
// not, after at most maxNegoRounds offers.
func (s *Server) HaggleToBudget(buyerID, productID string, budgetCents int64) (NegoReply, error) {
	p, err := s.cat.Get(productID)
	if err != nil {
		return NegoReply{}, fmt.Errorf("%w: %s", ErrNotFound, productID)
	}
	within := func(offer, ask int64) (int64, bool) {
		next := BuyerNextOffer(offer, ask, budgetCents)
		return next, next <= offer
	}
	open := func(offer int64) (NegoReply, error) { return s.NegotiateOpen(buyerID, productID, offer) }
	return Bargain(min(int64(0.7*float64(p.PriceCents)), budgetCents), within, open, s.NegotiateOffer)
}

// Bargain is the buyer's side of one alternating-offers session: open with
// first, then counter with each offer next derives from the last offer and
// the seller's ask, until the session is over or next reports that the
// offer cannot move (ProbeNextOffer has this shape). open and counter carry
// the offers to the seller, by direct call or by message. It returns the
// seller's last reply.
func Bargain(first int64, next func(offer, ask int64) (int64, bool),
	open func(offer int64) (NegoReply, error), counter func(sessionID string, offer int64) (NegoReply, error)) (NegoReply, error) {
	offer := first
	reply, err := open(offer)
	for err == nil && !reply.Over {
		var done bool
		if offer, done = next(offer, reply.AskCents); done {
			break
		}
		reply, err = counter(reply.SessionID, offer)
	}
	if err != nil {
		return NegoReply{}, err
	}
	return reply, nil
}

// ProbeNextOffer is the price-discovery strategy: raise the offer a quarter
// of the remaining gap each round while always staying below the ask, so
// the seller keeps conceding and the buyer learns the achievable floor
// without ever committing to a purchase. It returns done when the offer can
// no longer move. This is the chatty multi-round interaction of experiment
// C2 — the workload where agent migration beats remote calls.
func ProbeNextOffer(offer, ask int64) (next int64, done bool) {
	if ask <= 0 {
		return 0, true
	}
	step := (ask - offer) / 4
	if step < 1 {
		return 0, true
	}
	next = offer + step
	if next >= ask {
		next = ask - 1
	}
	if next <= offer {
		return 0, true
	}
	return next, false
}

// BuyerNextOffer is the deterministic buyer concession rule shared by
// HaggleToBudget and the Mobile Buyer Agent: move halfway toward the ask,
// and once the remaining gap is within 2% of the ask, meet it — a rational
// buyer does not walk away from a deal over a rounding gap. Offers never
// exceed budget.
func BuyerNextOffer(offer, ask, budget int64) int64 {
	next := offer + (ask-offer)/2
	if ask-next <= ask/50 {
		next = ask
	}
	if next > budget {
		next = budget
	}
	return next
}
