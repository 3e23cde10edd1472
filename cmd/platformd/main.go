// platformd runs the full agent-based e-commerce platform of Fig 3.1 over
// real TCP sockets: every server (coordinator, marketplaces, buyer agent
// server) is its own aglet host with an ATP endpoint, agents migrate
// between them as signed network frames, and the consumer-facing web
// interface (HttpA) listens on -http.
//
// Usage:
//
//	platformd -markets=2 -http=127.0.0.1:8080
//
// Several platformd processes form a replicated deployment with
// -buyer-peers: the ordered list of every buyer server's ATP address.
// Shard s of the consumer community is owned by the s%N-th listed server;
// writes are forwarded to owners and every server tails the others'
// journals, so each answers recommendations from local state (see
// DESIGN.md "Replication" and the README's flag reference).
//
// Then, from another terminal:
//
//	curl -XPOST localhost:8080/users  -d '{"user_id":"alice"}'
//	curl -XPOST localhost:8080/login  -d '{"user_id":"alice"}'
//	curl -XPOST localhost:8080/tasks  -d '{"user_id":"alice","spec":{"kind":"query","query":{"category":"laptop"}}}'
//	curl      'localhost:8080/recommendations?user=alice&category=laptop'
//
// With -events the daemon exposes its event plane: structured journal,
// replication-lag, compaction, and recommendation-delta events plus
// periodic whole-server snapshots, streamed at GET /events (SSE or
// NDJSON) and summarized at GET /metrics/snapshot:
//
//	curl -N 'localhost:8080/events?kinds=lag,snapshot&format=sse'
//
// All hosts share one HMAC platform key (-key), matching the paper's
// closed-domain security model.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"agentrec/internal/aglet"
	"agentrec/internal/atp"
	"agentrec/internal/buyerserver"
	"agentrec/internal/catalog"
	"agentrec/internal/coordinator"
	"agentrec/internal/marketplace"
	"agentrec/internal/ops"
	"agentrec/internal/platform"
	"agentrec/internal/recommend"
	"agentrec/internal/replnet"
	"agentrec/internal/security"
	"agentrec/internal/trace"
)

// replConfig is the buyer-server deployment parsed from -buyer-peers: the
// ordered list of every buyer server's ATP address (ownership map: shard s
// is owned by servers[s % len(servers)]) and this process's index in it.
// Without -buyer-peers, run makes it the one-server list [-buyer].
type replConfig struct {
	servers  []string
	self     int
	interval time.Duration
}

// daemonConfig is everything run needs, filled from flags by main and
// directly by tests.
type daemonConfig struct {
	markets        int
	coordAddr      string
	marketIP       string
	basePort       int
	buyerAddr      string
	httpAddr       string
	key            string
	stateDir       string
	shards         int
	compactRatio   float64
	events         bool
	eventsInterval time.Duration
	repl           *replConfig
	elastic        bool
	leaseInterval  time.Duration
	verbose        bool
	onTracer       func(*trace.Recorder) // test seam: sees the recorder run built (nil unless verbose)
}

func main() {
	var (
		markets      = flag.Int("markets", 2, "number of marketplace servers")
		coordAddr    = flag.String("coord", "127.0.0.1:7001", "coordinator ATP address")
		marketIP     = flag.String("market-ip", "127.0.0.1", "marketplace bind IP")
		basePort     = flag.Int("market-base-port", 7101, "first marketplace ATP port")
		buyerAddr    = flag.String("buyer", "127.0.0.1:7201", "buyer agent server ATP address")
		buyerPeers   = flag.String("buyer-peers", "", "ordered ATP addresses of ALL buyer servers (including -buyer) for shard replication; empty = a one-server deployment")
		shards       = flag.Int("engine-shards", recommend.DefaultShards, "engine shard count (every buyer server must agree)")
		replPull     = flag.Duration("repl-interval", recommend.DefaultPullInterval, "journal tail interval for shard replication")
		httpAddr     = flag.String("http", "127.0.0.1:8080", "consumer web interface address")
		key          = flag.String("key", "agentrec-demo-platform-key", "shared HMAC platform key")
		stateDir     = flag.String("state-dir", "", "durable state directory (empty = memory-only)")
		compactRatio = flag.Float64("compact-ratio", 4, "auto-compact the engine WAL when it exceeds this multiple of the live state (0 = manual only; needs -state-dir)")
		events       = flag.Bool("events", false, "event plane: stream journal/lag/compaction/rec-delta events and snapshots at GET /events and /metrics/snapshot")
		eventsEvery  = flag.Duration("events-interval", 5*time.Second, "snapshot heartbeat period on the event plane (needs -events)")
		elastic      = flag.Bool("coordinator", false, "coordinator-mediated elastic shard ownership: lease the ownership map from the CA at -coord and epoch-fence every replication frame (all daemons must share one -coord address; needs -buyer-peers)")
		leaseEvery   = flag.Duration("lease-interval", time.Second, "ownership lease renewal cadence; only the daemon hosting the CA reads it: its leases last 3 intervals, and every daemon renews each third of the lease its last grant carried (needs -coordinator)")
		verbose      = flag.Bool("trace", false, "print every workflow step")
	)
	flag.Parse()

	var repl *replConfig
	if *buyerPeers != "" {
		var servers []string
		self := -1
		for _, addr := range strings.Split(*buyerPeers, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				// An empty entry would silently skew the positional
				// ownership map (shard % N) on this server only.
				log.Fatalf("-buyer-peers %q contains an empty address", *buyerPeers)
			}
			if addr == *buyerAddr {
				self = len(servers)
			}
			servers = append(servers, addr)
		}
		if self < 0 {
			log.Fatalf("-buyer-peers %q does not contain -buyer %s", *buyerPeers, *buyerAddr)
		}
		repl = &replConfig{servers: servers, self: self, interval: *replPull}
	}

	// One signal context owns the whole daemon: every long-running task
	// (HTTP, replication, heartbeat, trace watcher) stops when it cancels,
	// and run returns only after all of them have.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, daemonConfig{
		markets:        *markets,
		coordAddr:      *coordAddr,
		marketIP:       *marketIP,
		basePort:       *basePort,
		buyerAddr:      *buyerAddr,
		httpAddr:       *httpAddr,
		key:            *key,
		stateDir:       *stateDir,
		shards:         *shards,
		compactRatio:   *compactRatio,
		events:         *events,
		eventsInterval: *eventsEvery,
		repl:           repl,
		elastic:        *elastic,
		leaseInterval:  *leaseEvery,
		verbose:        *verbose,
	}); err != nil {
		log.Fatal(err)
	}
}

// taskGroup runs the daemon's long-lived tasks: the first failure cancels
// the shared context for everyone, Wait blocks until all have returned and
// reports that first failure. A hand-rolled errgroup so the module stays
// dependency-free.
type taskGroup struct {
	wg     sync.WaitGroup
	cancel context.CancelFunc
	once   sync.Once
	err    error
}

func newTaskGroup(parent context.Context) (*taskGroup, context.Context) {
	ctx, cancel := context.WithCancel(parent)
	return &taskGroup{cancel: cancel}, ctx
}

func (g *taskGroup) Go(fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := fn(); err != nil {
			g.once.Do(func() { g.err = err })
			g.cancel()
		}
	}()
}

func (g *taskGroup) Wait() error {
	g.wg.Wait()
	g.cancel()
	return g.err
}

func run(ctx context.Context, cfg daemonConfig) error {
	// ctx is the process lifecycle: cancelled on shutdown so in-flight
	// forwarded writes abort instead of stalling on their send timeout.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	if cfg.repl == nil {
		// Without -buyer-peers this daemon is the one buyer server of its
		// deployment.
		cfg.repl = &replConfig{servers: []string{cfg.buyerAddr}, interval: recommend.DefaultPullInterval}
	}
	if cfg.elastic && len(cfg.repl.servers) < 2 {
		return errors.New("platformd: -coordinator requires -buyer-peers listing at least two buyer servers (elastic ownership moves shards between servers)")
	}
	if cfg.leaseInterval <= 0 {
		cfg.leaseInterval = time.Second
	}

	signer := security.NewSigner([]byte(cfg.key))
	client := atp.NewClient(signer)
	defer client.Close()
	// Only -trace pays for a recorder: nothing else reads one, and every
	// task would append its steps to it for the daemon's whole life. A nil
	// *trace.Recorder is valid everywhere and records nothing.
	var tracer *trace.Recorder
	if cfg.verbose {
		tracer = trace.New()
	}
	if cfg.onTracer != nil {
		cfg.onTracer(tracer)
	}

	var servers []*atp.Server
	var hosts []*aglet.Host
	defer func() {
		for i := len(servers) - 1; i >= 0; i-- {
			servers[i].Close()
		}
		for i := len(hosts) - 1; i >= 0; i-- {
			hosts[i].Close()
		}
	}()
	up := func(addr string, reg *aglet.Registry) (*aglet.Host, *atp.Server, error) {
		host := aglet.NewHost(addr, reg, aglet.WithTransport(client))
		srv, err := atp.Serve(host, signer, addr)
		if err != nil {
			return nil, nil, fmt.Errorf("platformd: serving %s: %w", addr, err)
		}
		hosts = append(hosts, host)
		servers = append(servers, srv)
		return host, srv, nil
	}

	// Coordinator. A statically owned daemon hosts its own; a -coordinator
	// deployment shares ONE CA address across daemons —
	// the first to bind hosts the ownership authority, everyone else joins
	// it over the wire (registration, admission, and lease renewals all
	// speak to the same CA).
	coordReg := aglet.NewRegistry()
	var coord *coordinator.Coordinator
	coordHost, _, err := up(cfg.coordAddr, coordReg)
	if err != nil {
		if !cfg.elastic {
			return err
		}
		log.Printf("coordinator %s already hosted elsewhere; joining it as a client", cfg.coordAddr)
	} else {
		if coord, err = coordinator.New(coordHost, coordReg, coordinator.WithTracer(tracer)); err != nil {
			return err
		}
		log.Printf("coordinator up at %s", cfg.coordAddr)
		if cfg.elastic {
			ttl := coordinator.LeaseTTL(cfg.leaseInterval)
			auth, err := coordinator.NewOwnershipAuthority(coordinator.OwnershipConfig{
				Shards:   cfg.shards,
				Servers:  len(cfg.repl.servers),
				LeaseTTL: ttl,
			})
			if err != nil {
				return err
			}
			coord.AttachOwnership(auth)
			log.Printf("ownership authority attached: %d shards / %d servers, lease TTL %v", cfg.shards, len(cfg.repl.servers), ttl)
		}
	}
	// register adds a directory entry — in-process when this daemon hosts
	// the CA, over the wire (with retries while the hosting daemon boots)
	// otherwise.
	register := func(from *aglet.Host, entry coordinator.Registration) error {
		if coord != nil {
			return coord.Register(entry)
		}
		msg, err := aglet.Encode(coordinator.KindRegister, entry)
		if err != nil {
			return err
		}
		proxy := from.RemoteProxy(cfg.coordAddr, coordinator.CAID)
		deadline := time.Now().Add(30 * time.Second)
		for {
			sctx, scancel := context.WithTimeout(ctx, 5*time.Second)
			_, err := proxy.Send(sctx, msg)
			scancel()
			if err == nil || ctx.Err() != nil || time.Now().After(deadline) {
				return err
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(250 * time.Millisecond):
			}
		}
	}

	// Marketplaces with a demo catalog.
	union := catalog.New()
	var marketAddrs []string
	for i := 0; i < cfg.markets; i++ {
		addr := fmt.Sprintf("%s:%d", cfg.marketIP, cfg.basePort+i)
		reg := aglet.NewRegistry()
		buyerserver.RegisterMBAType(reg)
		host, _, err := up(addr, reg)
		if err != nil {
			return err
		}
		cat := catalog.New()
		for _, p := range demoProducts(i) {
			if err := cat.Add(p); err != nil {
				return err
			}
			if err := union.Upsert(p); err != nil {
				return err
			}
		}
		if _, err := marketplace.NewServer(host, cat, reg); err != nil {
			return err
		}
		if err := register(host, coordinator.Registration{
			Kind: coordinator.KindMarketplace, Name: addr, Addr: addr,
		}); err != nil {
			return err
		}
		marketAddrs = append(marketAddrs, addr)
		log.Printf("marketplace %d up at %s (%d products)", i+1, addr, cat.Len())
	}

	// Buyer agent server, admitted through the Fig 4.1 workflow over TCP.
	buyerReg := aglet.NewRegistry()
	buyerHost, buyerSrv, err := up(cfg.buyerAddr, buyerReg)
	if err != nil {
		return err
	}
	var bus *ops.Bus
	if cfg.events {
		bus = ops.NewBus()
	}
	// This server is a Replica: it serves its shards' journal to peer buyer
	// servers, routes writes to shard owners, and tails the shards it does
	// not own; alone it owns every shard and follows none. Every side of the
	// wire is epoch-fenced through its ownership table, which starts from
	// the same static epoch-1 map on every daemon; with -coordinator it is
	// leased from the shared CA (local or remote — the same wire either
	// way), without it never.
	rc := platform.ReplicaConfig{
		Self:    cfg.repl.self,
		Servers: len(cfg.repl.servers),
		Catalog: union,
		Engine: platform.EngineConfig{
			Bus:          bus,
			Shards:       cfg.shards,
			CompactRatio: cfg.compactRatio, // keeps the community WAL, and with it restart time, bounded
		},
		Pull: cfg.repl.interval,
	}
	buyerOpts := []buyerserver.Option{
		buyerserver.WithTracer(tracer),
		buyerserver.WithMarkets(marketAddrs...),
	}
	if cfg.stateDir != "" {
		rc.Engine.StateDir = filepath.Join(cfg.stateDir, "engine")
		buyerOpts = append(buyerOpts, buyerserver.WithStateDir(filepath.Join(cfg.stateDir, "buyer-server-1")))
	}
	caProxy := buyerHost.RemoteProxy(cfg.coordAddr, coordinator.CAID)
	if cfg.elastic {
		rc.Renew = renewOverWire(caProxy)
		rc.OnLeaseError = func(err error) { log.Printf("ownership lease renewal: %v", err) }
		if bus != nil {
			rc.OnTransition = func(ev ops.Event) { bus.Publish(ev) }
		}
	}
	replica, err := platform.NewReplica(rc)
	if err != nil {
		return err
	}
	defer replica.Engine.Close() // after the task group has returned from replica.Run
	fenced := replnet.WithOwnership(replica.Engine.Ownership())
	buyerSrv.SetJournalHandler(replnet.Handler(replica.Engine, rc.Self, rc.Servers))
	writers := make([]recommend.Writer, rc.Servers)
	peers := make([]recommend.Peer, rc.Servers)
	for i, addr := range cfg.repl.servers {
		if i == rc.Self {
			continue
		}
		writers[i] = replnet.NewWriter(ctx, client, addr, fenced)
		peers[i] = replnet.NewPeer(client, addr, fenced)
	}
	if err := replica.Connect(writers, peers); err != nil {
		return err
	}
	log.Printf("%d shards over %d buyer server(s) (self=%d, tail every %v)",
		cfg.shards, rc.Servers, rc.Self, cfg.repl.interval)
	if cfg.stateDir != "" {
		st := replica.Engine.Stats()
		log.Printf("recovered community from %s: %d consumers", cfg.stateDir, st.Users)
	}
	// metrics is this server's slice of the unified stats view, served at
	// /metrics/snapshot and published by the heartbeat: its engine and
	// replication status, and how its atp client reached its peers.
	metrics := func() ops.Snapshot {
		sv := replica.Snapshot()
		dials, reuses := client.ConnStats()
		sv.Transport = &ops.TransportSnapshot{Dials: dials, Reuses: reuses}
		return ops.NewSnapshot(sv)
	}
	buyerOpts = append(buyerOpts, buyerserver.WithCommunityWriter(replica.Router), buyerserver.WithMetrics(metrics))
	if bus != nil {
		buyerOpts = append(buyerOpts, buyerserver.WithEventBus(bus))
	}
	buyer, err := buyerserver.New(buyerHost, buyerReg, replica.Engine, caProxy, buyerOpts...)
	if err != nil {
		return err
	}
	defer buyer.Close()
	log.Printf("buyer agent server up at %s (BSMA arrived by dispatch)", cfg.buyerAddr)

	// Everything fallible is built; from here the daemon is one task group
	// on one context. The first task failure — or the signal context —
	// stops every task, and run returns only after all of them have.
	httpServer := &http.Server{Addr: cfg.httpAddr, Handler: buyer.HTTPHandler()}
	g, gctx := newTaskGroup(ctx)
	g.Go(func() error {
		err := httpServer.ListenAndServe()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	})
	g.Go(func() error {
		<-gctx.Done()
		if bus != nil {
			// Event streams hold their HTTP handlers open; closing the bus
			// drains them so Shutdown is not stuck behind SSE consumers.
			bus.Close()
		}
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer shutCancel()
		return httpServer.Shutdown(shutCtx)
	})
	g.Go(func() error {
		if err := replica.Run(gctx); !errors.Is(err, context.Canceled) {
			return err
		}
		return nil
	})
	// Startup map-consistency check: every reachable peer must agree on the
	// ownership map before divergence can do damage.
	g.Go(func() error { return checkOwnerMaps(gctx, client, replica.Engine.Ownership(), cfg) })
	if cfg.elastic {
		log.Printf("elastic ownership on: leasing the map from %s, renewing every third of the granted TTL", cfg.coordAddr)
	}
	if bus != nil {
		g.Go(func() error { bus.Heartbeat(gctx, cfg.eventsInterval, metrics); return nil })
		log.Printf("event plane on: GET http://%s/events", cfg.httpAddr)
	}
	if cfg.verbose {
		g.Go(func() error {
			watchTrace(gctx, tracer)
			return nil
		})
	}
	log.Printf("consumer web interface at http://%s", cfg.httpAddr)
	return g.Wait()
}

// renewOverWire renews this server's ownership lease with a KindLease
// round-trip to the CA behind ca.
func renewOverWire(ca *aglet.Proxy) coordinator.RenewFunc {
	return func(ctx context.Context, server int, applied []uint64) (coordinator.LeaseGrant, error) {
		msg, err := aglet.Encode(coordinator.KindLease, coordinator.LeaseRequest{Server: server, Applied: applied})
		if err != nil {
			return coordinator.LeaseGrant{}, err
		}
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		reply, err := ca.Send(sctx, msg)
		if err != nil {
			return coordinator.LeaseGrant{}, err
		}
		var grant coordinator.LeaseGrant
		if err := aglet.Decode(reply, &grant); err != nil {
			return coordinator.LeaseGrant{}, err
		}
		return grant, nil
	}
}

// ownerMapProbeWindow bounds how long checkOwnerMaps keeps retrying an
// unreachable peer before skipping it. A var so tests can shrink it.
var ownerMapProbeWindow = 60 * time.Second

// checkOwnerMaps verifies at startup that every reachable peer agrees on
// the ownership map this server computed: same -engine-shards, same
// -buyer-peers length, a different self index, and — while both sides
// still sit at the static epoch-1 map — the same map hash. Any of these
// disagreeing (a peer list in a different order, a different shard count)
// would otherwise silently diverge replicas at runtime; failing the daemon
// with both views named is the cheap alternative. A peer that never
// answers inside the probe window is skipped, not failed: it may simply
// not have started yet, and it runs the same check against us when it
// does.
func checkOwnerMaps(ctx context.Context, client *atp.Client, owners *recommend.OwnershipTable, cfg daemonConfig) error {
	deadline := time.Now().Add(ownerMapProbeWindow)
	agreed := 0
	for i, addr := range cfg.repl.servers {
		if i == cfg.repl.self {
			continue
		}
		peer := replnet.NewPeer(client, addr)
		for {
			pctx, pcancel := context.WithTimeout(ctx, 2*time.Second)
			info, err := peer.OwnerMap(pctx)
			pcancel()
			if err == nil {
				if info.Shards != cfg.shards {
					return fmt.Errorf("platformd: owner-map mismatch with %s: it runs %d engine shards, this server %d — every buyer server must agree on -engine-shards", addr, info.Shards, cfg.shards)
				}
				if info.Servers != len(cfg.repl.servers) {
					return fmt.Errorf("platformd: owner-map mismatch with %s: it lists %d buyer servers, this server %d — do the -buyer-peers lists agree?", addr, info.Servers, len(cfg.repl.servers))
				}
				if info.Self == cfg.repl.self {
					return fmt.Errorf("platformd: owner-map mismatch with %s: it also claims index %d in -buyer-peers — the lists must agree on order", addr, info.Self)
				}
				if local := owners.Current(); local.Epoch == 1 && info.Epoch == 1 && info.Hash != local.Hash() {
					return fmt.Errorf("platformd: owner-map mismatch with %s: its epoch-1 map hashes %s, this server's %s — do the -buyer-peers lists agree on order and -engine-shards on value?", addr, info.Hash, local.Hash())
				}
				agreed++
				break
			}
			if ctx.Err() != nil {
				return nil // shutting down; not a verdict
			}
			if time.Now().After(deadline) {
				log.Printf("owner-map check: %s unreachable (%v); skipping — it verifies against us when it starts", addr, err)
				break
			}
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(500 * time.Millisecond):
			}
		}
	}
	if agreed > 0 {
		log.Printf("owner-map check: %d peer(s) agree on the ownership map", agreed)
	}
	return nil
}

// watchTrace tails the workflow recorder until ctx cancels, printing each
// step once and draining what it printed, so a traced daemon's recorder
// stays bounded too.
func watchTrace(ctx context.Context, tracer *trace.Recorder) {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for _, ev := range tracer.Drain() {
			log.Printf("step %s", ev)
		}
	}
}

// demoProducts stocks marketplace i with a small assortment; prices vary
// per market so price hunting is visible.
func demoProducts(i int) []*catalog.Product {
	bump := int64(i * 2500)
	return []*catalog.Product{
		{ID: "lap-ultra", Name: "UltraBook 13", Category: "laptop",
			Terms: map[string]float64{"ssd": 1, "light": 0.9}, PriceCents: 129900 + bump, SellerID: "acme", Stock: 10},
		{ID: "lap-game", Name: "GameBook 17", Category: "laptop",
			Terms: map[string]float64{"gpu": 1, "ssd": 0.5}, PriceCents: 219900 - bump, SellerID: "acme", Stock: 10},
		{ID: "cam-zoom", Name: "ZoomMaster", Category: "camera",
			Terms: map[string]float64{"zoom": 1, "lens": 0.7}, PriceCents: 89900 + bump, SellerID: "bmart", Stock: 10},
	}
}
