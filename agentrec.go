// Package agentrec is an agent-based consumer recommendation mechanism for
// electronic marketplaces: a Go reproduction of Wang, Hwang and Wang,
// "An Agent-Based Consumer Recommendation Mechanism" (2004).
//
// The library boots a complete agent-based e-commerce platform in process:
// a coordinator, one or more marketplaces offering query, negotiation, and
// auction services, seller-feed integration, and a Buyer Agent Server — the
// recommendation mechanism — where a Buyer Recommend Agent represents each
// online consumer and Mobile Buyer Agents physically migrate between
// marketplace hosts to shop. Consumer behaviour feeds hierarchical interest
// profiles (Fig 4.4 of the paper); profile similarity with a
// preference-value discard gate (Fig 4.5) drives collaborative filtering,
// combined with content-based information filtering. The neighbour search
// behind collaborative filtering is exact: it scores every consumer with
// evidence in the category, never a sampled shortlist.
//
// # Quickstart
//
//	p, err := agentrec.New(agentrec.WithMarketplaces(2))
//	// handle err, defer p.Close()
//	p.MustStock(0, &agentrec.Product{ID: "lap1", Category: "laptop", ...})
//	alice, err := p.NewConsumer(ctx, "alice")
//	res, err := alice.Query(ctx, agentrec.Query{Category: "laptop"})
//	// res.Recommendations holds the mechanism's suggestions
//
// See examples/ for runnable scenarios and DESIGN.md for the architecture.
package agentrec

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"agentrec/internal/buyerserver"
	"agentrec/internal/catalog"
	"agentrec/internal/ops"
	"agentrec/internal/platform"
	"agentrec/internal/recommend"
	"agentrec/internal/trace"
)

// Re-exported core types; the internal packages define them once.
type (
	// Product is one piece of merchandise. Prices are integer cents.
	Product = catalog.Product
	// Query is a merchandise search request.
	Query = catalog.Query
	// Match is one query hit with its relevance score.
	Match = catalog.Match
	// Rec is one recommended product.
	Rec = recommend.Rec
	// TaskResult is the outcome of a shopping task: per-marketplace
	// results, the completed sale if any, and recommendation information.
	TaskResult = buyerserver.TaskResult
	// TaskSpec describes a custom shopping task for RunTask.
	TaskSpec = buyerserver.TaskSpec
)

// Task kinds for TaskSpec.
const (
	TaskQuery   = buyerserver.TaskQuery
	TaskBuy     = buyerserver.TaskBuy
	TaskAuction = buyerserver.TaskAuction
)

// Platform is a running instance of the full agent-based e-commerce
// architecture. Construct with New; always Close it.
type Platform struct {
	inner  *platform.Platform
	tracer *trace.Recorder
}

// Option configures New.
type Option func(*platform.Config)

// WithMarketplaces sets the number of marketplaces (default 2).
func WithMarketplaces(n int) Option {
	return func(c *platform.Config) { c.Marketplaces = n }
}

// WithProducts stocks initial merchandise, distributed round-robin across
// the marketplaces.
func WithProducts(products ...*Product) Option {
	return func(c *platform.Config) { c.Products = append(c.Products, products...) }
}

// WithTracer records every workflow step (the numbered arrows of the
// paper's Figs 4.1–4.3) into r for inspection.
func WithTracer(r *trace.Recorder) Option {
	return func(c *platform.Config) { c.Tracer = r }
}

// WithEngineOptions tunes the recommendation engine (neighbourhood size,
// discard tolerance, hybrid weight).
func WithEngineOptions(opts ...recommend.Option) Option {
	return func(c *platform.Config) { c.EngineOpts = append(c.EngineOpts, opts...) }
}

// WithEngineShards sets how many user-keyed shards the recommendation
// engine partitions its community state into (default 16). More shards
// reduce write contention under heavy parallel traffic; recommendation
// results are identical for any shard count.
func WithEngineShards(n int) Option {
	return func(c *platform.Config) { c.EngineShards = n }
}

// WithBuyerServers boots n Buyer Agent Servers (default 1) — the paper's
// multi-server deployment of Fig 3.1. Each server has its own
// recommendation engine: every community shard has one owner server,
// writes are routed to it, and the other servers tail its journal, so each
// answers from its own replica of the community. A server reads another's
// writes once it has pulled them. See DESIGN.md "Replication".
func WithBuyerServers(n int) Option {
	return func(c *platform.Config) { c.BuyerServers = n }
}

// WithElasticOwnership puts shard ownership under the Coordinator Server's
// lease authority instead of the static shard%N map: every Buyer Agent
// Server renews an ownership lease each interval (1s when zero; the
// authority's lease TTL is three times it), writes route by the leased
// epoch-versioned ownership map, every routed write and replication pull
// is epoch-fenced, and when an owner's lease lapses its shards are
// promoted to the most caught-up live follower. Map transitions surface as
// `ownership` events with WithEvents. Requires WithBuyerServers(n) with
// n >= 2; see DESIGN.md "Ownership & failover".
func WithElasticOwnership(interval time.Duration) Option {
	return func(c *platform.Config) {
		c.ElasticOwnership = true
		c.OwnershipLease = interval
	}
}

// WithStateDir makes the platform durable under dir (created if absent):
// the recommendation engine write-through journals every consumer profile,
// purchase, and sell count to a WAL-backed store and recovers the whole
// community on New, and each Buyer Agent Server persists its UserDB and
// BSMDB the same way. A platform restarted on the same dir answers with
// the same recommendations it gave before the restart. Combine with
// WithCompaction to bound the journal itself.
func WithStateDir(dir string) Option {
	return func(c *platform.Config) { c.StateDir = dir }
}

// WithCompaction enables automatic crash-safe compaction of the durable
// community journal: whenever the WAL grows past ratio times its encoded
// live state it is rewritten down to live state in the background, so a
// long-lived platform's restart time stays bounded. Zero ratio keeps
// compaction manual; only meaningful together with WithStateDir. See
// DESIGN.md "Compaction".
func WithCompaction(ratio float64) Option {
	return func(c *platform.Config) { c.CompactRatio = ratio }
}

// WithEvents turns on the platform's event plane: every engine and
// replicator publishes structured ops events (journal appends, replication
// lag transitions, compaction passes, recommendation deltas) onto one
// process-wide bus, a heartbeat publishes a whole-platform Snapshot every
// interval (DefaultEventsInterval when zero), and the buyer servers' HTTP
// surface streams it all at GET /events. Consume in process with
// Platform.Subscribe. Publishing is allocation-free and never blocks
// engine writes; slow consumers lose oldest events with exact drop
// accounting. See DESIGN.md "Event plane".
func WithEvents(interval time.Duration) Option {
	return func(c *platform.Config) {
		c.Events = true
		c.EventsInterval = interval
	}
}

// Event-plane re-exports; see package ops for the full model.
type (
	// Event is one structured occurrence on the platform's event plane.
	Event = ops.Event
	// EventKind names an Event's payload variant.
	EventKind = ops.Kind
	// Snapshot is the unified whole-platform stats view served by
	// Platform.Metrics, /metrics/snapshot, and the heartbeat.
	Snapshot = ops.Snapshot
	// Subscription is a live event feed from Platform.Subscribe; read it
	// with Next until ops.ErrSubscriptionClosed.
	Subscription = ops.Subscription
)

// Event kinds for Platform.Subscribe and the ?kinds= filter of GET /events.
const (
	KindSnapshot   = ops.KindSnapshot
	KindRecDelta   = ops.KindRecDelta
	KindJournal    = ops.KindJournal
	KindLag        = ops.KindLag
	KindCompaction = ops.KindCompaction
	KindOwnership  = ops.KindOwnership
	KindDropped    = ops.KindDropped
)

// DefaultEventsInterval is the heartbeat period WithEvents(0) selects.
const DefaultEventsInterval = platform.DefaultEventsInterval

// Engine re-exports; see package recommend for the full set.
var (
	// WithNeighbors sets the collaborative-filtering neighbourhood size.
	WithNeighbors = recommend.WithNeighbors
	// WithTolerance sets the Fig 4.5 preference-value discard tolerance.
	WithTolerance = recommend.WithTolerance
	// WithHybridWeight sets the CF share of the hybrid mix.
	WithHybridWeight = recommend.WithHybridWeight
)

// New boots a platform.
func New(opts ...Option) (*Platform, error) {
	var cfg platform.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	tracer := cfg.Tracer
	inner, err := platform.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Platform{inner: inner, tracer: tracer}, nil
}

// Close shuts the platform down, waiting for every agent goroutine.
func (p *Platform) Close() error { return p.inner.Close() }

// Internal exposes the composition root for in-module tools (examples,
// benchmarks, cmd/recbench) that seed communities or inspect servers
// directly. It is an escape hatch, not API.
func (p *Platform) Internal() *platform.Platform { return p.inner }

// Stock adds a product to marketplace i (and the integrated catalog the
// recommender sees).
func (p *Platform) Stock(i int, prod *Product) error { return p.inner.Stock(i, prod) }

// MustStock is Stock for program setup: it panics on error.
func (p *Platform) MustStock(i int, prod *Product) {
	if err := p.inner.Stock(i, prod); err != nil {
		panic(fmt.Sprintf("agentrec: stocking %s: %v", prod.ID, err))
	}
}

// IntegrateJSONFeed ingests a seller's JSON product feed into marketplace i
// through the seller-server integration.
func (p *Platform) IntegrateJSONFeed(i int, r io.Reader, sellerID string) (int, error) {
	return p.inner.IntegrateJSONFeed(i, r, sellerID)
}

// IntegrateCSVFeed ingests a seller's legacy CSV feed into marketplace i.
func (p *Platform) IntegrateCSVFeed(i int, r io.Reader, sellerID string) (int, error) {
	return p.inner.IntegrateCSVFeed(i, r, sellerID)
}

// OpenAuction opens an English auction for one unit of productID on
// marketplace i, returning the auction id consumers bid on.
func (p *Platform) OpenAuction(i int, productID string, reserveCents int64) (string, error) {
	if i < 0 || i >= len(p.inner.Markets) {
		return "", fmt.Errorf("agentrec: no marketplace %d", i)
	}
	return p.inner.Markets[i].AuctionOpen(productID, reserveCents)
}

// CloseAuction ends an auction; the high bidder, if any, wins.
func (p *Platform) CloseAuction(i int, auctionID string) (winner string, priceCents int64, sold bool, err error) {
	if i < 0 || i >= len(p.inner.Markets) {
		return "", 0, false, fmt.Errorf("agentrec: no marketplace %d", i)
	}
	st, err := p.inner.Markets[i].AuctionClose(auctionID)
	if err != nil {
		return "", 0, false, err
	}
	if !st.Sold {
		return "", 0, false, nil
	}
	return st.Sale.BuyerID, st.Sale.PriceCents, true, nil
}

// MarketName returns the host name of marketplace i, used to address bids.
func (p *Platform) MarketName(i int) string {
	if i < 0 || i >= len(p.inner.Markets) {
		return ""
	}
	return p.inner.Markets[i].Host().Name()
}

// HTTPHandler exposes the buyer agent server's web interface (the paper's
// HttpA): registration, login, shopping tasks and recommendations as JSON
// over HTTP.
func (p *Platform) HTTPHandler() http.Handler { return p.inner.Buyer().HTTPHandler() }

// Metrics returns the unified whole-platform stats snapshot — every buyer
// server's engine sizing and replication status. Works with or without
// WithEvents.
func (p *Platform) Metrics() Snapshot { return p.inner.Metrics() }

// Subscribe attaches an in-process consumer to the event plane, filtered
// to kinds (none = all). Requires WithEvents; the subscription closes when
// ctx is cancelled.
func (p *Platform) Subscribe(ctx context.Context, kinds ...EventKind) (*Subscription, error) {
	return p.inner.Subscribe(ctx, kinds...)
}

// Hottest returns the trending merchandise of the window ending now — the
// "weekly hottest merchandise" of the paper's future work (§5.2 item 2).
// Like TiedSales it reads buyer server 0's replica of the community's
// purchase sets, which every server converges on: WithBuyerServers changes
// neither answer once the servers have caught up.
func (p *Platform) Hottest(now time.Time, window time.Duration, n int) []recommend.TrendEntry {
	return p.inner.Engine.Trending(now, window, n)
}

// TiedSales returns products frequently bought together with productID —
// the "tied-sale information" of §5.2 item 2.
func (p *Platform) TiedSales(productID string, minSupport, n int) []recommend.TiedSale {
	return p.inner.Engine.TiedSales(productID, minSupport, n)
}

// NewConsumer registers userID and logs them in, returning their handle.
func (p *Platform) NewConsumer(ctx context.Context, userID string) (*Consumer, error) {
	b := p.inner.Buyer()
	if err := b.Register(ctx, userID); err != nil {
		return nil, err
	}
	if _, err := b.Login(ctx, userID); err != nil {
		return nil, err
	}
	return &Consumer{platform: p, id: userID}, nil
}

// Consumer is one logged-in shopper, served by their Buyer Recommend Agent.
type Consumer struct {
	platform *Platform
	id       string
}

// ID returns the consumer's identifier.
func (c *Consumer) ID() string { return c.id }

// Query dispatches a Mobile Buyer Agent across every marketplace to find
// merchandise, returning matches and recommendation information (Fig 4.2).
func (c *Consumer) Query(ctx context.Context, q Query) (TaskResult, error) {
	return c.platform.inner.Buyer().Query(ctx, c.id, q)
}

// Buy purchases productID at the first marketplace within budget
// (0 = list price anywhere); with negotiate set the agent haggles
// (Fig 4.3).
func (c *Consumer) Buy(ctx context.Context, productID string, budgetCents int64, negotiate bool) (TaskResult, error) {
	return c.platform.inner.Buyer().Buy(ctx, c.id, productID, budgetCents, negotiate)
}

// Bid sends the consumer's agent to place one bid on an auction.
func (c *Consumer) Bid(ctx context.Context, marketName, auctionID string, budgetCents int64) (TaskResult, error) {
	return c.platform.inner.Buyer().Bid(ctx, c.id, marketName, auctionID, budgetCents)
}

// RunTask executes a custom task specification.
func (c *Consumer) RunTask(ctx context.Context, spec TaskSpec) (TaskResult, error) {
	return c.platform.inner.Buyer().RunTask(ctx, c.id, spec)
}

// Recommendations returns personalized suggestions outside any task.
func (c *Consumer) Recommendations(category string, n int) ([]Rec, error) {
	return c.platform.inner.Buyer().Recommendations(c.id, category, n)
}

// Logout takes the consumer offline; their agent terminates, but tasks in
// flight still complete and wait in the inbox.
func (c *Consumer) Logout(ctx context.Context) error {
	return c.platform.inner.Buyer().Logout(ctx, c.id)
}

// Login brings the consumer back online, delivering results that completed
// while they were away.
func (c *Consumer) Login(ctx context.Context) ([]TaskResult, error) {
	return c.platform.inner.Buyer().Login(ctx, c.id)
}
