package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"slices"

	"agentrec/internal/platform"
	"agentrec/internal/profile"
	"agentrec/internal/recommend"
	"agentrec/internal/similarity"
	"agentrec/internal/workload"
)

// browse: 10 000 consumers on one in-memory engine behind one buyer
// server. 81 % recommend in the consumer's strongest category, 9 % in a
// category they have no evidence in, 5 % set_profile, 5 % purchase, users
// Zipf 1.2. recommend, similarity and profile do all the work and
// kvstore, replnet, atp and aglet none; the two read kinds use the same
// engine differently, and the write trickle keeps a would-be top-N cache
// honest.

// browseRate is the frozen rate of the traced run's open loop: a quarter
// of the reference run's closed-loop throughput, two significant figures.
// One issuer is one queue; at half of capacity every second read finds it
// busy and the median sits on the edge between waiting and not. At a
// quarter the median is service time and the waiting shows in the p95.
const browseRate = 31

// Engine defaults the similarity rung has to repeat, since it calls
// similarity.TopKStream the way the engine does.
const (
	engineNeighbors = 10
	engineTolerance = 0.5
)

func browseInputs(e *env) (*inputs, error) {
	return generate(e.seed,
		workload.Config{Users: e.users(10000), Products: 1200, Categories: 16},
		workload.TrafficConfig{MixRecommend: 0.90, MixSetProfile: 0.05, MixPurchase: 0.05, UserZipfS: 1.2},
		0.1, altScan)
}

// answersDigest hashes the top-10 of 50 fixed probes on a quiescent
// seeded engine. One seed gives one digest, on any run.
func answersDigest(in *inputs, read readFunc) (string, error) {
	h := sha256.New()
	for _, p := range in.profiles[:min(50, len(in.profiles))] {
		recs, err := read(p.UserID, in.inTaste[p.UserID], 10)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s|%s", p.UserID, in.inTaste[p.UserID])
		for _, rec := range recs {
			fmt.Fprintf(h, "|%s:%.6f", rec.ProductID, rec.Score)
		}
		fmt.Fprintln(h)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8]), nil
}

func runBrowse(e *env, r *report) error {
	in, err := browseInputs(e)
	if err != nil {
		return err
	}
	before := liveHeap()
	var digests []string
	p, err := setUp(e, r, func() (*platform.Platform, error) {
		p, err := platform.New(platform.Config{Products: in.universe.Products})
		if err != nil {
			return nil, err
		}
		if err := p.SeedCommunity(in.profiles, in.purchases); err != nil {
			p.Close()
			return nil, err
		}
		return p, nil
	}, func(p *platform.Platform) error {
		d, err := answersDigest(in, p.Buyer().Recommendations)
		digests = append(digests, d)
		return err
	})
	if err != nil {
		return err
	}
	defer p.Close()
	r.check("answers_digest", len(slices.Compact(digests)) == 1, "%s over %d set-ups", digests[0], e.setups)
	srv, w := p.Buyer(), p.Writer(0)

	do := func(i uint64) (class, error) {
		op, c := in.op(i)
		return c, in.apply(p.Union, srv.Recommendations, w, op)
	}
	base := e.warmUp(r, 300, do, before, nil)

	if e.trace {
		return browseLayers(e, r, in, p, base, do)
	}

	closed := closedLoop(e.workers, e.dur(1), base, do)
	r.count(closed)
	r.endToEnd(closed, closed.lat[classRead], closed.lat[classAlt])
	return nil
}

// browseLayers is the traced run: the read ladder and the in-memory write
// ladder, then a short open loop for the generator's own lateness.
func browseLayers(e *env, r *report, in *inputs, p *platform.Platform, base uint64, plain doFunc) error {
	tr := newTracer()
	srv, eng, w := p.Buyer(), p.Engine, p.Writer(0)

	// The similarity rung scores the candidates the index would stream:
	// every seeded consumer with evidence in the category.
	cands := make(map[string][]similarity.Candidate)
	summaries := make(map[string]*profile.Summary, len(in.profiles))
	for _, prof := range in.profiles {
		s := prof.Summary()
		summaries[prof.UserID] = s
		for cat, ty := range s.Prefs {
			cands[cat] = append(cands[cat], similarity.Candidate{UserID: prof.UserID, Vec: s.Vec, Ty: ty, Norm: s.Norm})
		}
	}
	var candidates []int64

	ladder := func(i uint64) (class, error) {
		op, c := in.op(i)
		var first firstError
		keep := first.keep
		switch c {
		case classRead, classAlt:
			// The snapshot first, and beside the ladder: only the first
			// one after a write pays for rebuilding the dirtied shard views.
			var snap *recommend.Snapshot
			tr.do("recommend.snapshot", noParent, i, func() { snap = eng.Snapshot() })
			// Then one unrecorded pass: a rung that runs cold would be
			// charged the cache misses its replays below no longer pay.
			if _, err := srv.Recommendations(op.UserID, op.Category, in.topN); err != nil {
				return c, err
			}
			root := tr.do("buyerserver.recommendations", noParent, i, func() {
				_, e := srv.Recommendations(op.UserID, op.Category, in.topN)
				keep(e)
			})
			rec := tr.do("recommend.recommend", root, i, func() {
				_, e := eng.Recommend(recommend.StrategyAuto, op.UserID, op.Category, in.topN)
				keep(e)
			})
			hyb := tr.do("recommend.hybrid_merge", rec, i, func() {
				_, e := eng.RecommendWith(snap, recommend.StrategyHybrid, op.UserID, op.Category, in.topN)
				keep(e)
			})
			cf := tr.do("recommend.cf", hyb, i, func() {
				_, e := eng.RecommendWith(snap, recommend.StrategyCF, op.UserID, op.Category, -1)
				keep(e)
			})
			tr.do("recommend.ifilter", hyb, i, func() {
				_, e := eng.RecommendWith(snap, recommend.StrategyIF, op.UserID, op.Category, -1)
				keep(e)
			})
			rung := "recommend.neighbors"
			if c == classAlt {
				rung = "recommend.scan_neighbors"
			}
			tr.do(rung, cf, i, func() {
				_, e := eng.Neighbors(op.UserID, op.Category, recommend.SearchExact)
				keep(e)
			})
			if c == classRead {
				// Beside the ladder, not under it: the scoring core over
				// the candidates the index streams, without the index.
				s := summaries[op.UserID]
				pool := cands[op.Category]
				tr.do("similarity.topk", noParent, i, func() {
					_, e := similarity.TopKStream(op.UserID, s.Vec, s.Prefs[op.Category], engineTolerance, slices.Values(pool), engineNeighbors)
					keep(e)
				})
				tr.mu.Lock()
				candidates = append(candidates, int64(len(pool)))
				tr.mu.Unlock()
			}
			tr.do("profile.top_categories", noParent, i, func() { in.byUser[op.UserID].TopCategories(1) })
		case classSetProfile:
			var prof *profile.Profile
			tr.do("profile.clone_observe", noParent, i, func() {
				var e error
				prof, e = in.refreshed(p.Union, op)
				keep(e)
			})
			if first.err != nil {
				return c, first.err
			}
			set := tr.do("recommend.set_profile", noParent, i, func() { keep(w.SetProfile(prof)) })
			tr.do("profile.summary", set, i, func() { prof.Summary() })
			tr.do("profile.marshal", noParent, i, func() {
				_, e := prof.Marshal()
				keep(e)
			})
		case classPurchase:
			tr.do("recommend.record_purchase", noParent, i, func() { keep(w.RecordPurchase(op.UserID, op.ProductID)) })
		}
		return c, first.err
	}
	base = e.layerPhases(r, tr, base, classRead, plain, ladder,
		"recommend.scan_neighbors", "similarity.topk", "profile.clone_observe", "recommend.record_purchase")
	r.set("similarity.candidates_per_query", median(candidates), len(candidates))

	open, err := openLoop(context.Background(), e.workers, browseRate, e.dur(0.25), base, plain)
	if err != nil {
		return err
	}
	r.count(open)
	r.setTime("loadgen.late_p99_ms", open.late, 0.99)
	r.setTime("primary_p95_ms", open.lat[classRead], 0.95)
	gap := tr.attributionGap("buyerserver.recommendations", func(i uint64) bool { _, c := in.op(i); return c == classRead })
	r.attribute("read", gap)
	if e.spans != "" {
		return tr.write(e.spans)
	}
	return nil
}
