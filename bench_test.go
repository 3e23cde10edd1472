package agentrec

// The benchmark suite measures the performance side of the experiments
// whose tables `recbench -run` prints (run with `go test -bench=. -benchmem`).
// Each benchmark names the DESIGN.md experiment it belongs to.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"agentrec/internal/aglet"
	"agentrec/internal/buyerserver"
	"agentrec/internal/catalog"
	"agentrec/internal/coordinator"
	"agentrec/internal/kvstore"
	"agentrec/internal/marketplace"
	"agentrec/internal/platform"
	"agentrec/internal/profile"
	"agentrec/internal/recommend"
	"agentrec/internal/similarity"
	"agentrec/internal/workload"
)

// --- F4.4: profile update rule ----------------------------------------------

func BenchmarkProfileUpdate(b *testing.B) {
	p := profile.NewProfile("u")
	ev := profile.Evidence{
		Category:    "laptop",
		Terms:       map[string]float64{"ssd": 1, "light": 0.8, "gpu": 0.3, "screen": 0.5},
		SubCategory: "notebook",
		SubTerms:    map[string]float64{"13inch": 1, "carbon": 0.4},
		Behaviour:   profile.BehaviourBuy,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Observe(ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProfileSummary(b *testing.B) {
	u, err := workload.Generate(workload.Config{Seed: 9, Users: 1, Products: 300, RelevantPerUser: 40})
	if err != nil {
		b.Fatal(err)
	}
	p, err := u.BuildProfile(u.Users[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := p.Summary(); len(s.Vec.IDs) == 0 {
			b.Fatal("empty vector")
		}
	}
}

// --- F4.5: similarity --------------------------------------------------------

func benchProfiles(b *testing.B) (*profile.Profile, *profile.Profile) {
	b.Helper()
	u, err := workload.Generate(workload.Config{Seed: 11, Users: 2, Products: 300, RelevantPerUser: 30})
	if err != nil {
		b.Fatal(err)
	}
	p1, err := u.BuildProfile(u.Users[0])
	if err != nil {
		b.Fatal(err)
	}
	p2, err := u.BuildProfile(u.Users[1])
	if err != nil {
		b.Fatal(err)
	}
	return p1, p2
}

func BenchmarkSimilarityPaper(b *testing.B) {
	p1, p2 := benchProfiles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := similarity.PaperSimilarity(p1, p2, "cat00", 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDot prices one pair of the Fig 4.5 kernel, on generated
// profiles at the benchmark's shape (1 200 products, 16 categories): the
// gather reads one dense-table entry per candidate term. Pairs cycle
// through 256 consumers so no run scores one warm pair; the target changes
// once per cycle, and its scatter and unscatter are timed, spread over the
// cycle's 256 candidates as a search spreads them over its own.
func BenchmarkDot(b *testing.B) {
	u, err := workload.Generate(workload.Config{Seed: 11, Users: 256, Products: 1200, Categories: 16})
	if err != nil {
		b.Fatal(err)
	}
	sums := make([]*profile.Summary, len(u.Users))
	for i, usr := range u.Users {
		p, err := u.BuildProfile(usr)
		if err != nil {
			b.Fatal(err)
		}
		sums[i] = p.Summary()
	}
	b.ResetTimer()
	var sink float64
	var dense []float64
	var target *profile.Compact
	for i := 0; i < b.N; i++ {
		if i%len(sums) == 0 {
			if target != nil {
				target.Unscatter(dense)
			}
			target = sums[i/len(sums)%len(sums)].Vec
			dense = target.Scatter(dense)
		}
		sink += sums[i%len(sums)].Vec.Gather(dense)
	}
	_ = sink
}

// --- C5/C4: recommendation strategies ----------------------------------------

func benchEngine(b *testing.B, users, products int) (*recommend.Engine, *workload.Universe) {
	b.Helper()
	u, err := workload.Generate(workload.Config{
		Seed: 13, Users: users, Products: products, Categories: 8, RelevantPerUser: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	e := recommend.NewEngine(u.Catalog, recommend.WithNeighbors(10))
	for _, usr := range u.Users {
		p, err := u.BuildProfile(usr)
		if err != nil {
			b.Fatal(err)
		}
		e.SetProfile(p)
	}
	for user, pids := range u.Purchases() {
		for _, pid := range pids {
			e.RecordPurchase(user, pid)
		}
	}
	return e, u
}

func BenchmarkRecommenders(b *testing.B) {
	e, u := benchEngine(b, 200, 500)
	for _, s := range []recommend.Strategy{
		recommend.StrategyCF, recommend.StrategyIF, recommend.StrategyHybrid, recommend.StrategyTopSeller,
	} {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				user := u.Users[i%len(u.Users)].ID
				if _, err := e.Recommend(s, user, "", 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRecommenderCommunitySize(b *testing.B) {
	for _, users := range []int{50, 200, 800} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			e, u := benchEngine(b, users, 500)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				user := u.Users[i%len(u.Users)].ID
				if _, err := e.Recommend(recommend.StrategyCF, user, "", 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIFilter prices information filtering alone in one category of a
// 1 200-product catalogue: the read walks that category's slice of the
// catalogue's content view and copies no product.
func BenchmarkIFilter(b *testing.B) {
	e, u := benchEngineSized(b, 500, 1200, 16)
	taste := make([]string, len(u.Users)) // each consumer's strongest category
	for i, usr := range u.Users {
		p, err := e.Profile(usr.ID)
		if err != nil {
			b.Fatal(err)
		}
		if top := p.TopCategories(1); len(top) > 0 {
			taste[i] = top[0].Term
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(u.Users)
		if _, err := e.Recommend(recommend.StrategyIF, u.Users[j].ID, taste[j], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecommendParallel measures recommendation throughput under
// parallel load over a large community: every goroutine issues CF
// recommendations for a rotating set of consumers. This is the scaling
// experiment for the sharded engine — per-shard locks plus the shard views'
// category lists must let parallel requests proceed without serializing on
// one engine-wide mutex or rescanning the whole community per request.
func BenchmarkRecommendParallel(b *testing.B) {
	e, u := benchEngineSized(b, 10000, 2000, 32)
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			user := u.Users[int(next.Add(1))%len(u.Users)].ID
			if _, err := e.Recommend(recommend.StrategyCF, user, "", 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRecommendParallelMixed interleaves reads with profile and
// purchase writes (2 writes per 8 operations: one SetProfile, one
// RecordPurchase), the contention profile of a live platform where Profile
// Agents update while Buyer Recommend Agents read.
func BenchmarkRecommendParallelMixed(b *testing.B) {
	e, u := benchEngineSized(b, 10000, 2000, 32)
	profiles := make([]*profile.Profile, len(u.Users))
	for i, usr := range u.Users {
		p, err := u.BuildProfile(usr)
		if err != nil {
			b.Fatal(err)
		}
		profiles[i] = p
	}
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1))
			usr := u.Users[i%len(u.Users)]
			switch i % 8 {
			case 3:
				e.SetProfile(profiles[i%len(profiles)])
			case 6:
				e.RecordPurchase(usr.ID, usr.Held[i%len(usr.Held)])
			default:
				if _, err := e.Recommend(recommend.StrategyCF, usr.ID, "", 10); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkRecommendPersistent is BenchmarkRecommendParallel against a
// WAL-journaled engine: the community is installed write-through (bulk
// SetProfiles + journaled purchases), then parallel CF reads run. Reads
// never touch the journal, so throughput must stay within ~2x of the
// in-memory engine — the acceptance gate for the persistence layer.
func BenchmarkRecommendPersistent(b *testing.B) {
	u, err := workload.Generate(workload.Config{
		Seed: 17, Users: 10000, Products: 2000, Categories: 32, RelevantPerUser: 12,
	})
	if err != nil {
		b.Fatal(err)
	}
	e, err := recommend.Open(u.Catalog,
		recommend.WithNeighbors(10), recommend.WithPersistence(b.TempDir()))
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	profiles := make([]*profile.Profile, len(u.Users))
	for i, usr := range u.Users {
		p, err := u.BuildProfile(usr)
		if err != nil {
			b.Fatal(err)
		}
		profiles[i] = p
	}
	if err := e.SetProfiles(profiles); err != nil {
		b.Fatal(err)
	}
	for user, pids := range u.Purchases() {
		for _, pid := range pids {
			if err := e.RecordPurchase(user, pid); err != nil {
				b.Fatal(err)
			}
		}
	}
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			user := u.Users[int(next.Add(1))%len(u.Users)].ID
			if _, err := e.Recommend(recommend.StrategyCF, user, "", 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSnapshotAfterWrite prices what the first reader after a write
// pays for a current view of the written shard: one purchase, then
// Snapshot(), on a single shard the size of the benchmark's (312 consumers)
// and on one sixteen times that. The writes walk the consumers — the worst
// case — so every seventeenth read folds a full overlay into a new base, and
// that copy of one map of pointers is the part of the number that still
// grows with the shard; the other sixteen re-read one consumer.
func BenchmarkSnapshotAfterWrite(b *testing.B) {
	for _, users := range []int{312, 5000} {
		b.Run(fmt.Sprintf("shard=%d", users), func(b *testing.B) {
			e, u := benchEngineSized(b, users, 500, 8, recommend.WithShards(1))
			e.Snapshot()
			pid := u.Catalog.All()[0].ID
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.RecordPurchase(u.Users[i%users].ID, pid); err != nil {
					b.Fatal(err)
				}
				e.Snapshot()
			}
		})
	}
}

func benchEngineSized(b *testing.B, users, products, categories int, opts ...recommend.Option) (*recommend.Engine, *workload.Universe) {
	b.Helper()
	u, err := workload.Generate(workload.Config{
		Seed: 17, Users: users, Products: products, Categories: categories, RelevantPerUser: 12,
	})
	if err != nil {
		b.Fatal(err)
	}
	e := recommend.NewEngine(u.Catalog, append(opts, recommend.WithNeighbors(10))...)
	for _, usr := range u.Users {
		p, err := u.BuildProfile(usr)
		if err != nil {
			b.Fatal(err)
		}
		e.SetProfile(p)
	}
	for user, pids := range u.Purchases() {
		for _, pid := range pids {
			e.RecordPurchase(user, pid)
		}
	}
	return e, u
}

// --- workflow benchmarks (F4.1, F4.2, F4.3, C1, C6, C7) -----------------------

func benchPlatform(b *testing.B, markets int) *platform.Platform {
	b.Helper()
	var products []*catalog.Product
	for i := 0; i < markets; i++ {
		products = append(products, &catalog.Product{
			ID: fmt.Sprintf("p%d", i), Name: "P", Category: "laptop",
			Terms: map[string]float64{"ssd": 1}, PriceCents: 100000,
			SellerID: "s", Stock: 1 << 30,
		})
	}
	p, err := platform.New(platform.Config{Marketplaces: markets, Products: products})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { p.Close() })
	return p
}

func benchConsumer(b *testing.B, p *platform.Platform, id string) {
	b.Helper()
	ctx := context.Background()
	if err := p.Buyer().Register(ctx, id); err != nil {
		b.Fatal(err)
	}
	if _, err := p.Buyer().Login(ctx, id); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCreationWorkflow measures Fig 4.1: coordinator admission, BSMA
// dispatch, and mechanism setup, per buyer server created.
func BenchmarkCreationWorkflow(b *testing.B) {
	lb := aglet.NewLoopback()
	coordReg := aglet.NewRegistry()
	coordHost := aglet.NewHost("coord", coordReg)
	lb.Attach(coordHost)
	defer coordHost.Close()
	if _, err := coordinator.New(coordHost, coordReg); err != nil {
		b.Fatal(err)
	}
	union := catalog.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := aglet.NewRegistry()
		host := aglet.NewHost(fmt.Sprintf("buyer-%d", i), reg)
		lb.Attach(host)
		engine := recommend.NewEngine(union)
		srv, err := buyerserver.New(host, reg, engine, host.RemoteProxy("coord", coordinator.CAID))
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		srv.Close()
		lb.Detach(host.Name())
		b.StartTimer()
	}
}

// BenchmarkQueryWorkflow measures the full Fig 4.2 round trip: HttpA → BSMA
// → BRA → MBA trip across the marketplaces → profile update →
// recommendations.
func BenchmarkQueryWorkflow(b *testing.B) {
	p := benchPlatform(b, 2)
	benchConsumer(b, p, "u")
	ctx := context.Background()
	q := catalog.Query{Category: "laptop", Terms: []string{"ssd"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Buyer().Query(ctx, "u", q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuyWorkflow measures Fig 4.3 with a list-price purchase.
func BenchmarkBuyWorkflow(b *testing.B) {
	p := benchPlatform(b, 2)
	benchConsumer(b, p, "u")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.Buyer().Buy(ctx, "u", "p0", 0, false)
		if err != nil {
			b.Fatal(err)
		}
		if res.Sale == nil {
			b.Fatal("no sale")
		}
	}
}

// BenchmarkItinerary is C1: trip cost as the marketplace count grows.
func BenchmarkItinerary(b *testing.B) {
	for _, markets := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("markets=%d", markets), func(b *testing.B) {
			p := benchPlatform(b, markets)
			benchConsumer(b, p, "u")
			ctx := context.Background()
			q := catalog.Query{Category: "laptop"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Buyer().Query(ctx, "u", q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchC2Platform stocks the probe target on every marketplace, so both
// competitors bargain at every stop.
func benchC2Platform(b *testing.B, markets int) *platform.Platform {
	b.Helper()
	p := benchPlatform(b, markets)
	for i := 0; i < markets; i++ {
		if err := p.Stock(i, &catalog.Product{
			ID: "target", Name: "Target", Category: "laptop",
			Terms: map[string]float64{"ssd": 1}, PriceCents: 100000,
			SellerID: "s", Stock: 1 << 30,
		}); err != nil {
			b.Fatal(err)
		}
	}
	return p
}

// BenchmarkMBAvsRPC is C2 as a benchmark: the price-discovery probe by
// mobile agent versus by conventional remote calls, four marketplaces.
func BenchmarkMBAvsRPC(b *testing.B) {
	const markets = 4
	b.Run("mba", func(b *testing.B) {
		p := benchC2Platform(b, markets)
		benchConsumer(b, p, "u")
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Buyer().RunTask(ctx, "u", buyerserver.TaskSpec{
				Kind: buyerserver.TaskBuy, ProductID: "target", Probe: true,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rpc", func(b *testing.B) {
		p := benchC2Platform(b, markets)
		benchConsumer(b, p, "u")
		ctx := context.Background()
		host := p.Buyer().Host()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for mkt := 1; mkt <= markets; mkt++ {
				proxy := host.RemoteProxy(fmt.Sprintf("market-%d", mkt), marketplace.MSAID)
				if err := rpcProbeBench(ctx, proxy, "target"); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func rpcProbeBench(ctx context.Context, msa *aglet.Proxy, productID string) error {
	call := func(kind string, req any) (marketplace.NegoReply, error) {
		var reply marketplace.NegoReply
		msg, err := aglet.Encode(kind, req)
		if err == nil {
			msg, err = msa.Send(ctx, msg)
		}
		if err == nil {
			err = aglet.Decode(msg, &reply)
		}
		return reply, err
	}
	_, err := marketplace.Bargain(80000, marketplace.ProbeNextOffer,
		func(offer int64) (marketplace.NegoReply, error) {
			return call(marketplace.KindNegoOpen, marketplace.NegoOpenRequest{BuyerID: "rpc", ProductID: productID, OfferCents: offer})
		},
		func(sessionID string, offer int64) (marketplace.NegoReply, error) {
			return call(marketplace.KindNegoOffer, marketplace.NegoOfferRequest{SessionID: sessionID, OfferCents: offer})
		})
	return err
}

// BenchmarkLoginChurn is C6: consumer session turnover (BRA create/dispose).
func BenchmarkLoginChurn(b *testing.B) {
	p := benchPlatform(b, 1)
	ctx := context.Background()
	if err := p.Buyer().Register(ctx, "u"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Buyer().Login(ctx, "u"); err != nil {
			b.Fatal(err)
		}
		if err := p.Buyer().Logout(ctx, "u"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeactivateActivate is C7: parking and reviving an agent with
// state serialization, the §4.1(3) mechanism.
func BenchmarkDeactivateActivate(b *testing.B) {
	reg := aglet.NewRegistry()
	buyerserver.RegisterMBAType(reg)
	host := aglet.NewHost("h", reg)
	defer host.Close()
	init := []byte(`{"user_id":"u","spec":{"task_id":"t","kind":"query"},"itinerary":{"stops":["m"],"home":"h","index":0},"token":"x","nonce":"y","response":"z"}`)
	if _, err := host.Create("mba", "a", init); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := host.Deactivate("a"); err != nil {
			b.Fatal(err)
		}
		if _, err := host.Activate("a"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ------------------------------------------------

func BenchmarkAgentMessage(b *testing.B) {
	reg := aglet.NewRegistry()
	reg.Register("echo", func() aglet.Aglet { return &echoBenchAgent{} })
	host := aglet.NewHost("h", reg)
	defer host.Close()
	proxy, err := host.Create("echo", "e", nil)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	msg := aglet.Message{Kind: "ping", Data: []byte("x")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proxy.Send(ctx, msg); err != nil {
			b.Fatal(err)
		}
	}
}

type echoBenchAgent struct{ aglet.Base }

func (e *echoBenchAgent) HandleMessage(_ *aglet.Context, m aglet.Message) (aglet.Message, error) {
	return m, nil
}

func BenchmarkAgentDispatchLoopback(b *testing.B) {
	lb := aglet.NewLoopback()
	reg := aglet.NewRegistry()
	reg.Register("echo", func() aglet.Aglet { return &echoBenchAgent{} })
	h1 := aglet.NewHost("h1", reg)
	h2 := aglet.NewHost("h2", reg)
	defer h1.Close()
	defer h2.Close()
	lb.Attach(h1)
	lb.Attach(h2)
	if _, err := h1.Create("echo", "mover", nil); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := h1, h2
		if i%2 == 1 {
			src, dst = h2, h1
		}
		if err := src.Dispatch(ctx, "mover", dst.Name()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKVStorePut(b *testing.B) {
	s := kvstore.New()
	val := []byte(`{"weight":0.42}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put("b", fmt.Sprintf("k%d", i%4096), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKVStoreWALPut(b *testing.B) {
	s, err := kvstore.Open(b.TempDir() + "/bench.wal")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := []byte(`{"weight":0.42}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put("b", fmt.Sprintf("k%d", i%4096), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadGenerate(b *testing.B) {
	cfg := workload.Config{Seed: 1, Users: 100, Products: 300}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := workload.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// guard against compiler optimizing benchmarks with unused results.
var _ = time.Now
