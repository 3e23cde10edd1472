// Package experiments runs the experiments and prints their tables: the
// paper's figures turned into measurements (F4.4, F4.5) and its qualitative
// claims turned into quantified experiments (C2, C4, C5). cmd/recbench is a
// thin CLI over this package (`recbench -run` prints the tables to stdout);
// the root benchmark suite reuses the same fixtures.
//
// The paper itself reports no numbers, so expectations are *shapes* (who
// wins, what degrades, where crossovers sit), stated per experiment in its
// doc comment and asserted by this package's tests.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"agentrec/internal/aglet"
	"agentrec/internal/buyerserver"
	"agentrec/internal/catalog"
	"agentrec/internal/eval"
	"agentrec/internal/marketplace"
	"agentrec/internal/platform"
	"agentrec/internal/profile"
	"agentrec/internal/recommend"
	"agentrec/internal/similarity"
	"agentrec/internal/workload"
)

// Size scales an experiment. Quick is for tests and -quick runs; Full for
// the recorded tables.
type Size int

// Sizes.
const (
	Quick Size = iota
	Full
)

func (s Size) universe(seed uint64) workload.Config {
	if s == Quick {
		return workload.Config{Seed: seed, Users: 60, Products: 200, Categories: 6, RelevantPerUser: 12}
	}
	return workload.Config{Seed: seed, Users: 400, Products: 800, Categories: 10, RelevantPerUser: 20}
}

// Run executes the named experiment ("F4.4", "F4.5", "C2", "C4", "C5", or
// "all") and writes its tables to w.
func Run(w io.Writer, name string, size Size) error {
	type exp struct {
		id string
		fn func(io.Writer, Size) error
	}
	all := []exp{
		{"F4.4", F44LearningRate},
		{"F4.5", F45DiscardGate},
		{"C2", C2NetworkLoad},
		{"C4", C4SparsityColdStart},
		{"C5", C5StrategyQuality},
	}
	if name == "all" {
		for _, e := range all {
			if err := e.fn(w, size); err != nil {
				return fmt.Errorf("experiment %s: %w", e.id, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	for _, e := range all {
		if e.id == name {
			return e.fn(w, size)
		}
	}
	return fmt.Errorf("experiments: unknown experiment %q", name)
}

// --- F4.4: the learning-rate trade-off in the profile update rule ----------

// F44LearningRate measures what α buys: with per-observation decay (aging
// of old interests), a larger α adapts to a taste change faster (fewer
// observations until the new interest dominates) and holds a higher
// steady-state weight, at the cost of more volatility from single
// observations (one-shot share).
func F44LearningRate(w io.Writer, _ Size) error {
	const decay = 0.95
	table := eval.NewTable("F4.4 — learning rate α vs adaptation (decay 0.95/observation)",
		"alpha", "obs_to_switch", "steady_weight", "one_shot_share", "survives_prune_1.0")

	for _, alpha := range []float64{0.05, 0.1, 0.3, 0.5, 0.9} {
		p, err := profile.NewProfileAlpha("u", alpha)
		if err != nil {
			return err
		}
		oldDoc := profile.Evidence{Category: "c", Terms: map[string]float64{"old": 1}, Behaviour: profile.BehaviourBuy}
		newDoc := profile.Evidence{Category: "c", Terms: map[string]float64{"new": 1}, Behaviour: profile.BehaviourBuy}
		// Phase 1: 50 observations of the old interest.
		for i := 0; i < 50; i++ {
			p.Decay(decay)
			if err := p.Observe(oldDoc); err != nil {
				return err
			}
		}
		steady := p.Categories["c"].Terms["old"]
		// Phase 2: the consumer's taste changes; count observations until
		// the new term outweighs the old.
		switchAt := -1
		for i := 1; i <= 500; i++ {
			p.Decay(decay)
			if err := p.Observe(newDoc); err != nil {
				return err
			}
			if p.Categories["c"].Terms["new"] > p.Categories["c"].Terms["old"] {
				switchAt = i
				break
			}
		}
		// One-shot share: how much of the steady-state weight a single
		// observation contributes (volatility).
		oneShot := alpha * 1.0 / steady
		// The place α really bites: whether a steadily reinforced interest
		// clears a fixed pruning threshold. Small α + housekeeping pruning
		// means systematic amnesia.
		survives := steady >= 1.0

		table.AddRow(alpha, switchAt, steady, oneShot, survives)
	}
	return table.Render(w)
}

// --- F4.5: the preference-value discard gate --------------------------------

// F45DiscardGate sweeps the gate tolerance on a synthetic community and
// reports collaborative-filtering quality and how many of the k candidate
// neighbours survive the gate. tolerance=1 disables the gate (the plain
// cosine ablation).
func F45DiscardGate(w io.Writer, size Size) error {
	u, err := workload.Generate(size.universe(45))
	if err != nil {
		return err
	}
	profiles, err := u.Profiles()
	if err != nil {
		return err
	}

	table := eval.NewTable("F4.5 — discard-gate tolerance vs CF quality (k=10, top-10)",
		"tolerance", "precision", "recall", "mean_neighbors")
	for _, tol := range []float64{0.1, 0.3, 0.5, 0.7, 1.0} {
		engine := recommend.NewEngine(u.Catalog, recommend.WithNeighbors(10), recommend.WithTolerance(tol))
		if err := platform.Seed(engine, engine, profiles, u.Purchases()); err != nil {
			return err
		}
		var recLists, relLists [][]string
		var neighborSum float64
		for i, p := range profiles {
			usr := u.Users[i]
			if usr.ColdStart {
				continue
			}
			recs, err := engine.Recommend(recommend.StrategyCF, p.UserID, "", 10)
			if err != nil {
				return err
			}
			recLists = append(recLists, recIDs(recs))
			relLists = append(relLists, usr.Held)
			nbs, err := similarity.TopK(p, profiles, topCategory(p), tol, 10)
			if err != nil {
				return err
			}
			neighborSum += float64(len(nbs))
		}
		m := eval.Aggregate(recLists, relLists)
		table.AddRow(tol, m.Precision, m.Recall, neighborSum/float64(len(recLists)))
	}
	return table.Render(w)
}

func topCategory(p *profile.Profile) string {
	if top := p.TopCategories(1); len(top) > 0 {
		return top[0].Term
	}
	return ""
}

func recIDs(recs []recommend.Rec) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.ProductID
	}
	return out
}

// --- C2: mobile agents vs conventional request/response ---------------------

// C2NetworkLoad compares a Mobile Buyer Agent's price-discovery trip (probe
// the achievable price at every marketplace through multi-round
// negotiation — the paper intro's "compare the product prices by
// themselves" pain) against the conventional client that drives the same
// probing with remote calls, across marketplace counts and simulated
// per-hop WAN latencies. The mobile agent crosses the network once per hop
// and bargains locally; the conventional client pays one network round trip
// per bargaining message.
func C2NetworkLoad(w io.Writer, size Size) error {
	marketCounts := []int{2, 4, 8}
	latencies := []time.Duration{0, 2 * time.Millisecond, 10 * time.Millisecond}
	if size == Quick {
		marketCounts = []int{2, 4}
		latencies = []time.Duration{0, 2 * time.Millisecond}
	}

	table := eval.NewTable("C2 — network cost: MBA trip vs conventional RPC (price-discovery probe)",
		"markets", "latency_ms", "mba_msgs", "rpc_msgs", "mba_ms", "rpc_ms")
	for _, m := range marketCounts {
		for _, lat := range latencies {
			row, err := c2Row(m, lat)
			if err != nil {
				return err
			}
			table.AddRow(m, float64(lat.Milliseconds()), row.mbaMsgs, row.rpcMsgs,
				float64(row.mbaWall.Microseconds())/1000, float64(row.rpcWall.Microseconds())/1000)
		}
	}
	return table.Render(w)
}

type c2Result struct {
	mbaMsgs, rpcMsgs int
	mbaWall, rpcWall time.Duration
}

func c2Row(markets int, latency time.Duration) (c2Result, error) {
	p, err := platform.New(platform.Config{Marketplaces: markets})
	if err != nil {
		return c2Result{}, err
	}
	defer p.Close()
	// The same product everywhere; both sides probe each seller's price
	// floor through multi-round negotiation without buying, so they do
	// identical bargaining work.
	for i := 0; i < markets; i++ {
		if err := p.Stock(i, &catalog.Product{
			ID: "target", Name: "Target", Category: "c",
			Terms: map[string]float64{"t": 1}, PriceCents: 100000,
			SellerID: "s", Stock: 100,
		}); err != nil {
			return c2Result{}, err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	b := p.Buyer()
	if err := b.Register(ctx, "u"); err != nil {
		return c2Result{}, err
	}
	if _, err := b.Login(ctx, "u"); err != nil {
		return c2Result{}, err
	}

	if latency > 0 {
		p.Loopback.SetPerHop(func(string) { time.Sleep(latency) })
	}

	// Mobile agent path: one probing trip across every marketplace.
	p.Loopback.ResetStats()
	start := time.Now()
	if _, err := b.RunTask(ctx, "u", buyerserver.TaskSpec{
		Kind: buyerserver.TaskBuy, ProductID: "target", Probe: true,
	}); err != nil {
		return c2Result{}, err
	}
	res := c2Result{mbaWall: time.Since(start)}
	d, c, _ := p.Loopback.Stats()
	res.mbaMsgs = d + c

	// Conventional path: a remote client drives the same probing against
	// each marketplace's MSA, one network round trip per message.
	p.Loopback.ResetStats()
	start = time.Now()
	buyerHost := b.Host()
	for i := 0; i < markets; i++ {
		dest := fmt.Sprintf("market-%d", i+1)
		proxy := buyerHost.RemoteProxy(dest, marketplace.MSAID)
		if err := rpcProbe(ctx, proxy, "target", 100000); err != nil {
			return c2Result{}, err
		}
	}
	res.rpcWall = time.Since(start)
	d, c, _ = p.Loopback.Stats()
	res.rpcMsgs = d + c
	p.Loopback.SetPerHop(nil)
	return res, nil
}

// rpcProbe is the conventional client's price-discovery loop: every offer
// is a remote call. listPrice mirrors the MBA's 80%-of-list opening.
func rpcProbe(ctx context.Context, msa *aglet.Proxy, productID string, listPrice int64) error {
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
	_, err := marketplace.Bargain(int64(0.8*float64(listPrice)), marketplace.ProbeNextOffer,
		func(offer int64) (marketplace.NegoReply, error) {
			return call(marketplace.KindNegoOpen, marketplace.NegoOpenRequest{BuyerID: "rpc", ProductID: productID, OfferCents: offer})
		},
		func(sessionID string, offer int64) (marketplace.NegoReply, error) {
			return call(marketplace.KindNegoOffer, marketplace.NegoOfferRequest{SessionID: sessionID, OfferCents: offer})
		})
	return err
}

// --- C4: sparsity and cold start ---------------------------------------------

// C4SparsityColdStart sweeps behaviour density (how much of each consumer's
// true taste the system has observed) and reports how each technique
// degrades, plus the cold-start row: brand-new consumers with no history.
func C4SparsityColdStart(w io.Writer, size Size) error {
	base := size.universe(44)
	base.ColdStartUsers = base.Users / 4

	table := eval.NewTable("C4 — behaviour density vs technique quality (top-10)",
		"relevant_per_user", "density_pct", "cf_prec", "if_prec", "hybrid_prec", "topseller_prec", "cold_auto_prec")
	sweeps := []int{4, 8, 16, 32}
	if size == Quick {
		sweeps = []int{4, 12}
	}
	for _, rel := range sweeps {
		cfg := base
		cfg.RelevantPerUser = rel
		u, err := workload.Generate(cfg)
		if err != nil {
			return err
		}
		profiles, err := u.Profiles()
		if err != nil {
			return err
		}
		engine := recommend.NewEngine(u.Catalog, recommend.WithNeighbors(10))
		if err := platform.Seed(engine, engine, profiles, u.Purchases()); err != nil {
			return err
		}
		events := 0
		for _, usr := range u.Users {
			events += len(usr.Train)
		}
		density := 100 * float64(events) / float64(len(u.Users)*len(u.Products))

		precFor := func(strategy recommend.Strategy, cold bool) (float64, error) {
			var recLists, relLists [][]string
			for _, usr := range u.Users {
				if usr.ColdStart != cold {
					continue
				}
				recs, err := engine.Recommend(strategy, usr.ID, "", 10)
				if err != nil {
					return 0, err
				}
				recLists = append(recLists, recIDs(recs))
				relLists = append(relLists, usr.Held)
			}
			return eval.Aggregate(recLists, relLists).Precision, nil
		}
		cf, err := precFor(recommend.StrategyCF, false)
		if err != nil {
			return err
		}
		ifp, err := precFor(recommend.StrategyIF, false)
		if err != nil {
			return err
		}
		hy, err := precFor(recommend.StrategyHybrid, false)
		if err != nil {
			return err
		}
		ts, err := precFor(recommend.StrategyTopSeller, false)
		if err != nil {
			return err
		}
		cold, err := precFor(recommend.StrategyAuto, true)
		if err != nil {
			return err
		}
		table.AddRow(rel, density, cf, ifp, hy, ts, cold)
	}
	return table.Render(w)
}

// --- C5: strategy quality ------------------------------------------------------

// C5StrategyQuality is the headline comparison: every technique on the same
// community, plus the hybrid-weight and neighbourhood-size ablations.
func C5StrategyQuality(w io.Writer, size Size) error {
	u, err := workload.Generate(size.universe(55))
	if err != nil {
		return err
	}
	profiles, err := u.Profiles()
	if err != nil {
		return err
	}
	purchases := u.Purchases()

	build := func(opts ...recommend.Option) (*recommend.Engine, error) {
		e := recommend.NewEngine(u.Catalog, opts...)
		if err := platform.Seed(e, e, profiles, purchases); err != nil {
			return nil, err
		}
		return e, nil
	}
	measure := func(e *recommend.Engine, strategy recommend.Strategy) (eval.Metrics, error) {
		var recLists, relLists [][]string
		for _, usr := range u.Users {
			recs, err := e.Recommend(strategy, usr.ID, "", 10)
			if err != nil {
				return eval.Metrics{}, err
			}
			recLists = append(recLists, recIDs(recs))
			relLists = append(relLists, usr.Held)
		}
		return eval.Aggregate(recLists, relLists), nil
	}

	main := eval.NewTable("C5 — technique comparison (k=10, hybrid weight 0.6, top-10)",
		"strategy", "precision", "recall", "f1", "coverage", "distinct_items")
	e, err := build(recommend.WithNeighbors(10))
	if err != nil {
		return err
	}
	for _, s := range []recommend.Strategy{
		recommend.StrategyCF, recommend.StrategyIF, recommend.StrategyHybrid, recommend.StrategyTopSeller,
	} {
		m, err := measure(e, s)
		if err != nil {
			return err
		}
		main.AddRow(s.String(), m.Precision, m.Recall, m.F1, m.Coverage, m.Distinct)
	}
	if err := main.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	mix := eval.NewTable("C5a — hybrid weight ablation (CF share)",
		"cf_share", "precision", "recall")
	for _, wgt := range []float64{0, 0.25, 0.5, 0.6, 0.75, 1} {
		weighted, err := build(recommend.WithNeighbors(10), recommend.WithHybridWeight(wgt))
		if err != nil {
			return err
		}
		m, err := measure(weighted, recommend.StrategyHybrid)
		if err != nil {
			return err
		}
		mix.AddRow(wgt, m.Precision, m.Recall)
	}
	if err := mix.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	knn := eval.NewTable("C5b — neighbourhood size ablation (CF)",
		"k", "precision", "recall")
	ks := []int{2, 5, 10, 20, 40}
	if size == Quick {
		ks = []int{2, 10}
	}
	for _, k := range ks {
		sized, err := build(recommend.WithNeighbors(k))
		if err != nil {
			return err
		}
		m, err := measure(sized, recommend.StrategyCF)
		if err != nil {
			return err
		}
		knn.AddRow(k, m.Precision, m.Recall)
	}
	return knn.Render(w)
}

// Names returns the experiment ids Run accepts, for CLI help.
func Names() []string {
	out := []string{"F4.4", "F4.5", "C2", "C4", "C5"}
	sort.Strings(out)
	return out
}
