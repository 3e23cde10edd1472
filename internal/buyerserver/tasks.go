package buyerserver

import (
	"context"
	"fmt"
	"slices"

	"agentrec/internal/catalog"
	"agentrec/internal/marketplace"
	"agentrec/internal/recommend"
)

// TaskKind selects what the Mobile Buyer Agent does at the marketplaces.
type TaskKind string

// Task kinds, matching the paper's consumer actions.
const (
	TaskQuery   TaskKind = "query"   // Fig 4.2: merchandise query
	TaskBuy     TaskKind = "buy"     // Fig 4.3: purchase (list price or negotiated)
	TaskAuction TaskKind = "auction" // Fig 4.3: join an auction
)

// TaskSpec describes one shopping task assigned to an MBA.
type TaskSpec struct {
	TaskID      string        `json:"task_id"`
	Kind        TaskKind      `json:"kind"`
	Query       catalog.Query `json:"query,omitempty"`
	ProductID   string        `json:"product_id,omitempty"`
	BudgetCents int64         `json:"budget_cents,omitempty"`
	Negotiate   bool          `json:"negotiate,omitempty"`
	Probe       bool          `json:"probe,omitempty"` // discover the price floor; never buy
	AuctionID   string        `json:"auction_id,omitempty"`
	Markets     []string      `json:"markets,omitempty"` // itinerary override
}

// MarketResult is what the MBA gathered at one marketplace.
type MarketResult struct {
	Market  string                     `json:"market"`
	Matches []catalog.Match            `json:"matches,omitempty"`
	Sale    *marketplace.Sale          `json:"sale,omitempty"`
	Nego    *marketplace.NegoReply     `json:"nego,omitempty"`
	Auction *marketplace.AuctionStatus `json:"auction,omitempty"`
	Err     string                     `json:"err,omitempty"`
}

// TaskResult is the consumer-facing outcome of a task: everything the MBA
// brought home plus the recommendation information the BRA generated from
// it (§3.3 function 2).
type TaskResult struct {
	TaskID          string            `json:"task_id"`
	UserID          string            `json:"user_id"`
	Kind            TaskKind          `json:"kind"`
	Results         []MarketResult    `json:"results"`
	Sale            *marketplace.Sale `json:"sale,omitempty"` // the completed purchase, if any
	Recommendations []recommend.Rec   `json:"recommendations,omitempty"`
	CrossSell       []recommend.Rec   `json:"cross_sell,omitempty"`
	AuthFailed      bool              `json:"auth_failed,omitempty"`
}

// AllMatches flattens the per-market query matches.
func (r TaskResult) AllMatches() []catalog.Match {
	var out []catalog.Match
	for _, mr := range r.Results {
		out = append(out, mr.Matches...)
	}
	return out
}

// Query runs the Fig 4.2 merchandise-query workflow for userID: an MBA
// visits every known marketplace, gathers matches, and the BRA turns them
// plus the consumer community's preferences into recommendations.
func (s *Server) Query(ctx context.Context, userID string, q catalog.Query) (TaskResult, error) {
	return s.runTask(ctx, userID, TaskSpec{Kind: TaskQuery, Query: q})
}

// Buy runs the Fig 4.3 workflow: the MBA visits marketplaces and buys
// productID at the first one within budget (0 = list price anywhere),
// haggling first when negotiate is set.
func (s *Server) Buy(ctx context.Context, userID, productID string, budgetCents int64, negotiate bool) (TaskResult, error) {
	return s.runTask(ctx, userID, TaskSpec{
		Kind: TaskBuy, ProductID: productID, BudgetCents: budgetCents, Negotiate: negotiate,
	})
}

// Bid runs the Fig 4.3 auction variant: the MBA travels to market and
// places one bid on auctionID, up to budgetCents.
func (s *Server) Bid(ctx context.Context, userID, market, auctionID string, budgetCents int64) (TaskResult, error) {
	return s.runTask(ctx, userID, TaskSpec{
		Kind: TaskAuction, AuctionID: auctionID, BudgetCents: budgetCents, Markets: []string{market},
	})
}

// RunTask executes an arbitrary TaskSpec; the named helpers above are the
// common cases.
func (s *Server) RunTask(ctx context.Context, userID string, spec TaskSpec) (TaskResult, error) {
	return s.runTask(ctx, userID, spec)
}

// runTask drives the workflow through the agents: HttpA → BSMA → BRA → MBA
// trip → BSMA (authenticates the MBA from its header and forwards its bytes)
// → BRA, which generates the recommendation information, records the final
// step and fulfils the rendezvous channel this call waits on.
func (s *Server) runTask(ctx context.Context, userID string, spec TaskSpec) (TaskResult, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return TaskResult{}, ErrClosed
	}
	spec.TaskID = s.nextTaskID()
	known := s.Markets()
	if len(spec.Markets) == 0 {
		spec.Markets = known
	}
	if len(spec.Markets) == 0 {
		return TaskResult{}, ErrNoMarkets
	}
	// An itinerary is the caller's choice of this server's marketplaces,
	// never an address of its own: the MBA carries its credentials to every
	// stop.
	for _, m := range spec.Markets {
		if !slices.Contains(known, m) {
			return TaskResult{}, fmt.Errorf("%w: %q", ErrUnknownMarket, m)
		}
	}
	ch := s.registerPending(spec.TaskID)

	// Step 1 of Figs 4.2/4.3: the buyer talks to the web interface agent,
	// which forwards to the BSMA (step 2).
	if _, err := s.sendHttpA(ctx, kindHTTPTask, taskReq{UserID: userID, Spec: spec}); err != nil {
		s.dropPending(spec.TaskID)
		return TaskResult{}, err
	}
	select {
	case res := <-ch:
		if res.AuthFailed {
			return res, ErrAuthFailed
		}
		return res, nil
	case <-ctx.Done():
		s.dropPending(spec.TaskID)
		return TaskResult{}, ctx.Err()
	}
}

// workflowName maps a task kind to the trace workflow it belongs to:
// queries follow Fig 4.2, buys and auctions Fig 4.3.
func workflowName(kind TaskKind) string {
	if kind == TaskQuery {
		return "query"
	}
	return "buy"
}
