// Package platform is the composition root reproducing Fig 3.1: one
// Coordinator Server, one or more Marketplaces, Seller Servers feeding them
// merchandise, and one or more Buyer Agent Servers (the recommendation
// mechanism), all running in-process over the loopback agent transport.
// cmd/platformd assembles the same pieces over TCP with the atp transport.
//
// Every Buyer Agent Server is a Replica (replica.go, the assembly platformd
// shares) with its own engine: community shard s is owned by server s%N, a
// recommend.Router forwards each server's writes to the owner, and a
// recommend.Replicator per server tails the owners' journals so every
// server reads from a local replica. One server is the degenerate case: it
// owns every shard and follows none. SeedCommunity and SyncReplicas give
// deterministic post-write convergence barriers.
//
// With StateDir set, every store is WAL-backed under one root — the engine
// under engine/ (engine-<i>/ per server when there are several), each
// server's UserDB and BSMDB under buyer-server-<n>/ — and New recovers all
// of it, so a restarted platform answers as it did before the restart.
package platform

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"agentrec/internal/aglet"
	"agentrec/internal/buyerserver"
	"agentrec/internal/catalog"
	"agentrec/internal/coordinator"
	"agentrec/internal/marketplace"
	"agentrec/internal/ops"
	"agentrec/internal/profile"
	"agentrec/internal/recommend"
	"agentrec/internal/trace"
)

// Config sizes the platform. Zero fields take the default in brackets.
type Config struct {
	Marketplaces int    // [2]
	BuyerServers int    // [1]
	EngineShards int    // user-keyed engine shards [recommend.DefaultShards]
	StateDir     string // durable state root; empty = memory-only [""]

	// CompactRatio enables automatic crash-safe compaction of every
	// engine's community WAL: the journal is rewritten down to live state
	// in the background whenever it exceeds CompactRatio times the encoded
	// live size. Zero keeps compaction manual (Engine.CompactState), and
	// it is meaningless without StateDir. With several buyer servers every
	// engine keeps a journal feed, so it compacts from a smaller journal
	// and checks more often: a follower journals every applied record AND
	// rewrites whole shards on snapshot catch-up, so its WAL outgrows an
	// owner's. [0]
	CompactRatio float64

	// EventsInterval > 0 enables the streaming event plane and is its
	// snapshot heartbeat period: one ops.Bus per platform that every
	// engine and replicator publishes into (journal appends,
	// recommendation deltas, compaction passes, lag transitions, periodic
	// snapshot heartbeats), served live on every buyer server's HTTP
	// surface (GET /events, GET /metrics/snapshot) and to embedders via
	// Platform.Subscribe / Platform.Metrics. [0: no event plane]
	EventsInterval time.Duration

	// OwnershipLease > 0 (only with BuyerServers >= 2) puts shard
	// ownership under the coordinator's lease authority instead of the
	// static shard%N map. The authority grants leases of
	// coordinator.LeaseTTL(OwnershipLease), and every server renews each
	// third of the TTL its grant carries: once per OwnershipLease. Routing
	// and fencing follow the leased recommend.OwnershipMap, a server whose
	// lease lapses has its shards promoted to the most caught-up follower,
	// and every map transition is published as an `ownership` event (with
	// the event plane). Zero keeps the static map, and nothing changes. [0]
	OwnershipLease time.Duration

	Tracer     *trace.Recorder    // optional workflow tracer
	EngineOpts []recommend.Option // tuning for every engine
	Products   []*catalog.Product // initial merchandise, distributed round-robin

	pull time.Duration // journal tail interval [recommend.DefaultPullInterval]; tests shorten it
}

// ErrNoBuyerServers reports a config without any buyer server.
var ErrNoBuyerServers = errors.New("platform: need at least one buyer server")

// Platform is one running instance of the Fig 3.1 architecture.
type Platform struct {
	Loopback    *aglet.Loopback
	Coordinator *coordinator.Coordinator
	Markets     []*marketplace.Server
	Buyers      []*buyerserver.Server
	Union       *catalog.Catalog // integrated view of all marketplace merchandise

	// Replicas holds buyer server i's engine, ownership table, write router
	// and replicator at index i.
	Replicas []*Replica
	// Engine is Replicas[0].Engine, buyer server 0's engine. Every other
	// server reads its own replica and converges on the same answers.
	Engine *recommend.Engine

	// Events is the platform's event bus (nil without
	// Config.EventsInterval); see events.go for the embedder API (Metrics,
	// Subscribe).
	Events *ops.Bus

	// Ownership is the coordinator's lease authority (nil without
	// Config.OwnershipLease).
	Ownership *coordinator.Authority

	hosts []*aglet.Host
	stop  context.CancelFunc // cancels the one context New runs every loop under
	loops sync.WaitGroup     // every replica's Run and the snapshot heartbeat
}

// New boots a platform.
func New(cfg Config) (*Platform, error) {
	if cfg.Marketplaces <= 0 {
		cfg.Marketplaces = 2
	}
	if cfg.BuyerServers == 0 {
		cfg.BuyerServers = 1
	}
	if cfg.BuyerServers < 0 {
		return nil, ErrNoBuyerServers
	}
	if cfg.OwnershipLease > 0 && cfg.BuyerServers < 2 {
		return nil, errors.New("platform: OwnershipLease requires BuyerServers >= 2")
	}

	ctx, stop := context.WithCancel(context.Background())
	p := &Platform{
		Loopback: aglet.NewLoopback(),
		Union:    catalog.New(),
		stop:     stop,
	}
	ok := false
	defer func() {
		if !ok {
			p.Close()
		}
	}()

	coordReg := aglet.NewRegistry()
	coordHost := p.newHost("coord", coordReg)
	coord, err := coordinator.New(coordHost, coordReg, coordinator.WithTracer(cfg.Tracer))
	if err != nil {
		return nil, err
	}
	p.Coordinator = coord

	var marketNames []string
	for i := 0; i < cfg.Marketplaces; i++ {
		name := fmt.Sprintf("market-%d", i+1)
		reg := aglet.NewRegistry()
		buyerserver.RegisterMBAType(reg)
		host := p.newHost(name, reg)
		mp, err := marketplace.NewServer(host, catalog.New(), reg)
		if err != nil {
			return nil, err
		}
		p.Markets = append(p.Markets, mp)
		marketNames = append(marketNames, name)
		if err := coord.Register(coordinator.Registration{
			Kind: coordinator.KindMarketplace, Name: name, Addr: name,
		}); err != nil {
			return nil, err
		}
	}

	for i, prod := range cfg.Products {
		if err := p.Stock(i%cfg.Marketplaces, prod); err != nil {
			return nil, err
		}
	}

	if cfg.EventsInterval > 0 {
		p.Events = ops.NewBus()
	}

	if err := p.replicate(ctx, cfg); err != nil {
		return nil, err
	}
	p.Engine = p.Replicas[0].Engine

	for i, r := range p.Replicas {
		name := fmt.Sprintf("buyer-server-%d", i+1)
		reg := aglet.NewRegistry()
		host := p.newHost(name, reg)
		caProxy := host.RemoteProxy("coord", coordinator.CAID)
		opts := []buyerserver.Option{
			buyerserver.WithTracer(cfg.Tracer),
			buyerserver.WithMarkets(marketNames...),
			buyerserver.WithMetrics(p.Metrics),
			buyerserver.WithCommunityWriter(r.Router),
		}
		if p.Events != nil {
			opts = append(opts, buyerserver.WithEventBus(p.Events))
		}
		if cfg.StateDir != "" {
			// Each mechanism persists its own UserDB/BSMDB beside the engine.
			opts = append(opts, buyerserver.WithStateDir(filepath.Join(cfg.StateDir, name)))
		}
		srv, err := buyerserver.New(host, reg, r.Engine, caProxy, opts...)
		if err != nil {
			return nil, err
		}
		p.Buyers = append(p.Buyers, srv)
	}
	if p.Events != nil {
		// Last, so a tick never races construction.
		p.loops.Add(1)
		go func() { defer p.loops.Done(); p.Events.Heartbeat(ctx, cfg.EventsInterval, p.Metrics) }()
	}
	ok = true
	return p, nil
}

// replicate gives every buyer server its own Replica: shard s starts on
// server s%N, writes route to the owner, and each server tails the others.
// Each engine journals under its own directory of the state root and
// recovers its community from there, so a restart keeps every consumer.
// With an OwnershipLease every replica leases the map from an authority
// attached to the coordinator; without it the static map is never leased.
// Every replica runs under ctx.
func (p *Platform) replicate(ctx context.Context, cfg Config) error {
	var renew coordinator.RenewFunc
	if cfg.OwnershipLease > 0 {
		renew = func(_ context.Context, server int, applied []uint64) (coordinator.LeaseGrant, error) {
			return p.Ownership.Renew(server, applied)
		}
	}
	ec := EngineConfig{
		Bus:          p.Events,
		Shards:       cfg.EngineShards,
		CompactRatio: cfg.CompactRatio,
		Extra:        cfg.EngineOpts,
	}
	for i := 0; i < cfg.BuyerServers; i++ {
		if cfg.StateDir != "" {
			sub := "engine"
			if cfg.BuyerServers > 1 {
				sub = fmt.Sprintf("engine-%d", i)
			}
			ec.StateDir = filepath.Join(cfg.StateDir, sub)
		}
		r, err := NewReplica(ReplicaConfig{
			Self:    i,
			Servers: cfg.BuyerServers,
			Catalog: p.Union,
			Engine:  ec,
			Pull:    cfg.pull,
			Renew:   renew,
		})
		if err != nil {
			return err
		}
		p.Replicas = append(p.Replicas, r)
	}
	if renew != nil {
		var publish func(ops.Event)
		if p.Events != nil {
			publish = func(ev ops.Event) { p.Events.Publish(ev) }
		}
		auth, err := coordinator.NewOwnershipAuthority(coordinator.OwnershipConfig{
			Shards:   p.Replicas[0].Engine.Shards(),
			Servers:  cfg.BuyerServers,
			LeaseTTL: coordinator.LeaseTTL(cfg.OwnershipLease),
			Publish:  publish,
		})
		if err != nil {
			return err
		}
		p.Coordinator.AttachOwnership(auth)
		p.Ownership = auth
	}
	for i, r := range p.Replicas {
		if err := r.Connect(LocalLinks(p.Replicas, i)); err != nil {
			return err
		}
	}
	for _, r := range p.Replicas {
		p.loops.Add(1)
		go func() { defer p.loops.Done(); r.Run(ctx) }()
	}
	return nil
}

// SyncReplicas runs one deterministic catch-up pass on every replicator:
// after a nil return, every buyer server's engine has applied all writes
// the owners had journaled when the pass began. A lone server follows no
// shard, so its pass does nothing.
func (p *Platform) SyncReplicas(ctx context.Context) error {
	var first error
	for _, r := range p.Replicas {
		if err := r.Replicator.Sync(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (p *Platform) newHost(name string, reg *aglet.Registry) *aglet.Host {
	host := aglet.NewHost(name, reg)
	p.Loopback.Attach(host)
	p.hosts = append(p.hosts, host)
	return host
}

// Buyer returns the first buyer agent server, the common case.
func (p *Platform) Buyer() *buyerserver.Server { return p.Buyers[0] }

// Writer returns buyer server i's community write surface, the ownership
// router its own agents write through. Load drivers use it to spread
// writes across servers the way real buyer traffic would.
func (p *Platform) Writer(i int) recommend.Writer {
	if i < 0 || i >= len(p.Replicas) {
		return nil
	}
	return p.Replicas[i].Router
}

// Stock adds a product to marketplace index i and the integrated catalog.
func (p *Platform) Stock(i int, prod *catalog.Product) error {
	if i < 0 || i >= len(p.Markets) {
		return fmt.Errorf("platform: no marketplace %d", i)
	}
	if err := p.Markets[i].Catalog().Upsert(prod); err != nil {
		return err
	}
	return p.Union.Upsert(prod)
}

// IntegrateJSONFeed runs a seller's JSON feed through the Seller Server
// integration into marketplace i (§3.2 item 4).
func (p *Platform) IntegrateJSONFeed(i int, r io.Reader, sellerID string) (int, error) {
	return p.integrate(i, sellerID, func(in *catalog.Integrator) (int, error) {
		return in.IntegrateJSON(r, sellerID)
	})
}

// IntegrateCSVFeed runs a seller's legacy CSV feed through the Seller
// Server integration into marketplace i.
func (p *Platform) IntegrateCSVFeed(i int, r io.Reader, sellerID string) (int, error) {
	return p.integrate(i, sellerID, func(in *catalog.Integrator) (int, error) {
		return in.IntegrateCSV(r, sellerID)
	})
}

func (p *Platform) integrate(i int, sellerID string, apply func(*catalog.Integrator) (int, error)) (int, error) {
	if i < 0 || i >= len(p.Markets) {
		return 0, fmt.Errorf("platform: no marketplace %d", i)
	}
	n, err := apply(catalog.NewIntegrator(p.Markets[i].Catalog()))
	if err != nil {
		return 0, err
	}
	if err := p.Coordinator.Register(coordinator.Registration{
		Kind: coordinator.KindSeller, Name: sellerID, Addr: p.Markets[i].Host().Name(),
	}); err != nil {
		return n, err
	}
	// Mirror into the integrated catalog the engine recommends over.
	for _, prod := range p.Markets[i].Catalog().All() {
		if prod.SellerID == sellerID {
			if err := p.Union.Upsert(prod); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// SeedCommunity installs pre-built consumer profiles and purchase histories
// through buyer server 0 (Seed), for examples and experiments that need a
// warm community, and ends with a SyncReplicas barrier so every server
// reads the seeded community at once.
func (p *Platform) SeedCommunity(profiles []*profile.Profile, purchases map[string][]string) error {
	if err := Seed(p.Replicas[0].Engine, p.Replicas[0].Router, profiles, purchases); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return p.SyncReplicas(ctx)
}

// Seed writes pre-built consumer profiles and purchase histories through
// w, ordered by eng's shard map. Profiles go through the bulk-install path
// (one lock acquisition and one durable batch per shard). Each consumer's
// purchase history is one write, made grouped by shard and then by
// consumer, never in map order, so the journal a seeding writes is the same
// on every run. The profiles must already hold the purchases' evidence, as
// workload.BuildProfile's replay of a consumer's history does. Other
// servers read the community once they have pulled it.
func Seed(eng *recommend.Engine, w recommend.Writer, profiles []*profile.Profile, purchases map[string][]string) error {
	if err := w.SetProfiles(profiles); err != nil {
		return err
	}
	users := make([]string, 0, len(purchases))
	for user := range purchases {
		users = append(users, user)
	}
	sort.Slice(users, func(i, j int) bool {
		si, sj := eng.ShardOf(users[i]), eng.ShardOf(users[j])
		if si != sj {
			return si < sj
		}
		return users[i] < users[j]
	})
	for _, user := range users {
		sales := make([]recommend.PurchasePair, len(purchases[user]))
		for i, pid := range purchases[user] {
			sales[i] = recommend.PurchasePair{UserID: user, ProductID: pid}
		}
		if err := w.Observe(user, nil, sales); err != nil {
			return err
		}
	}
	return nil
}

// Close shuts everything down: every loop New started first (the replicas'
// pulls and renewals, the snapshot heartbeat), then the event bus (so wire
// consumers drain and disconnect), buyer servers (they own live agents
// with in-flight trips), marketplaces, the coordinator, and the engines'
// persistence journals.
func (p *Platform) Close() error {
	p.stop()
	p.loops.Wait()
	if p.Events != nil {
		p.Events.Close()
	}
	var first error
	for _, b := range p.Buyers {
		if err := b.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, h := range p.hosts {
		if err := h.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, r := range p.Replicas {
		if err := r.Engine.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
