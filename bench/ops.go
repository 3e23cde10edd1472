package main

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"agentrec/internal/catalog"
	"agentrec/internal/profile"
	"agentrec/internal/recommend"
	"agentrec/internal/workload"
)

// The op adapter. workload.Traffic draws a recommend op's category
// uniformly, so ~94 % of its reads name a category the consumer has no
// evidence in and fall through neighborsMode's full-community scan; the
// posting-list index is never on the measured path. The adapter keeps
// Traffic's kind, consumer and product choices and rewrites only the
// recommend category, as a pure function of (seed, i).

// class labels what an op measures. Classes index the sample slices of a
// phase, so they are small dense integers.
type class uint8

const (
	classRead       class = iota // recommend in the consumer's strongest category: posting-list path
	classAlt                     // the workload's other read: zero-evidence category (scan) or Traffic's uniform one
	classSetProfile              // profile install or refresh
	classPurchase                // one recorded sale
	classForward                 // set_profile whose shard the other server owns (replicated)
	classBuy                     // Fig 4.3 task (shop-tasks)
	numClasses
)

// altMode says what the adapter turns the altShare of recommend ops into.
type altMode uint8

const (
	altScan    altMode = iota // first category by name where the seeded profile's PreferenceValue is 0
	altUniform                // Traffic's own uniformly drawn category, untouched
)

// inputs is everything a workload generates from its seed before any
// timed work: the universe, the seeded community and the op schedule.
// Immutable once built, so every worker reads it without locks.
type inputs struct {
	seed      uint64
	universe  *workload.Universe
	profiles  []*profile.Profile
	byUser    map[string]*profile.Profile
	purchases map[string][]string
	traffic   *workload.Traffic
	topN      int

	inTaste  map[string]string // consumer -> strongest seeded category
	scanCat  map[string]string // consumer -> first category by name with no evidence
	altShare float64           // share of recommend ops that become classAlt
	alt      altMode

	// active > 0 folds every op onto the first active consumers, the ones
	// a workload gave a session; rank is a consumer's place in the universe.
	active int
	rank   map[string]int
	price  map[string]int64 // product -> list price
}

// communitySeed generates every workload's universe and seeded community.
// They are the fixture the platform is loaded with; the run's seed drives
// the op schedule alone. With user Zipf 1.2 a dozen consumers issue half
// the ops, so a community drawn from the run's seed made every median a
// property of which dozen the seed picked: 14 % between seeds against 3 %
// between runs of one seed.
const communitySeed = 1

// generate builds the inputs of one workload: the fixed community, and
// the op schedule of this seed.
func generate(seed uint64, cfg workload.Config, tc workload.TrafficConfig, altShare float64, alt altMode) (*inputs, error) {
	cfg.Seed, tc.Seed = communitySeed, seed
	u, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	in := &inputs{
		seed: seed, universe: u, purchases: u.Purchases(),
		byUser:   make(map[string]*profile.Profile, len(u.Users)),
		inTaste:  make(map[string]string, len(u.Users)),
		scanCat:  make(map[string]string, len(u.Users)),
		altShare: altShare, alt: alt,
		rank:  make(map[string]int, len(u.Users)),
		price: make(map[string]int64, len(u.Products)),
	}
	for _, p := range u.Products {
		in.price[p.ID] = p.PriceCents
	}
	cats := u.Catalog.Categories()
	sort.Strings(cats)
	for i, usr := range u.Users {
		in.rank[usr.ID] = i
		p, err := u.BuildProfile(usr)
		if err != nil {
			return nil, err
		}
		in.profiles = append(in.profiles, p)
		in.byUser[p.UserID] = p
		if top := p.TopCategories(1); len(top) > 0 {
			in.inTaste[p.UserID] = top[0].Term
		}
		for _, c := range cats {
			if p.PreferenceValue(c) == 0 {
				in.scanCat[p.UserID] = c
				break
			}
		}
	}
	if in.traffic, err = workload.NewTraffic(u, tc); err != nil {
		return nil, err
	}
	in.topN = in.traffic.TopN()
	return in, nil
}

// op returns operation i and what it measures. Pure in (seed, i): the
// class draw uses its own generator keyed like Traffic's, so it never
// perturbs Traffic's choices.
func (in *inputs) op(i uint64) (workload.Op, class) {
	op := in.traffic.Op(i)
	if rank, seeded := in.rank[op.UserID]; seeded && in.active > 0 {
		op.UserID = in.universe.Users[rank%in.active].ID
	}
	switch op.Kind {
	case workload.OpSetProfile:
		return op, classSetProfile
	case workload.OpRecordPurchase:
		return op, classPurchase
	}
	asAlt := rand.New(rand.NewPCG(in.seed^0x62656e63686f7073, i)).Float64() < in.altShare
	if asAlt {
		if in.alt == altUniform {
			return op, classAlt
		}
		if c, ok := in.scanCat[op.UserID]; ok {
			op.Category = c
			return op, classAlt
		}
	}
	if c, ok := in.inTaste[op.UserID]; ok {
		op.Category = c
	}
	return op, classRead
}

// refreshed builds the profile a set_profile op installs, by loadgen's
// rule: a seeded consumer's profile plus one query-strength observation
// per product, a new consumer's from buy-strength observations alone.
func (in *inputs) refreshed(cat *catalog.Catalog, op workload.Op) (*profile.Profile, error) {
	var p *profile.Profile
	behaviour := profile.BehaviourQuery
	if base := in.byUser[op.UserID]; base != nil && !op.NewUser {
		p = base.Clone()
	} else {
		p = profile.NewProfile(op.UserID)
		behaviour = profile.BehaviourBuy
	}
	for _, pid := range op.ObserveProducts {
		prod, err := cat.Get(pid)
		if err != nil {
			return nil, err
		}
		if err := p.Observe(prod.Evidence(behaviour)); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// readFunc is a buyer-side read surface: Server.Recommendations, or an
// engine's StrategyAuto.
type readFunc func(user, category string, n int) ([]recommend.Rec, error)

func autoRead(eng *recommend.Engine) readFunc {
	return func(user, category string, n int) ([]recommend.Rec, error) {
		return eng.Recommend(recommend.StrategyAuto, user, category, n)
	}
}

// apply executes op against one buyer-side read surface and one community
// write surface.
func (in *inputs) apply(cat *catalog.Catalog, read readFunc, w recommend.Writer, op workload.Op) error {
	switch op.Kind {
	case workload.OpRecommend:
		_, err := read(op.UserID, op.Category, in.topN)
		return err
	case workload.OpSetProfile:
		p, err := in.refreshed(cat, op)
		if err != nil {
			return err
		}
		return w.SetProfile(p)
	case workload.OpRecordPurchase:
		return w.RecordPurchase(op.UserID, op.ProductID)
	}
	return fmt.Errorf("bench: unknown op kind %v", op.Kind)
}
