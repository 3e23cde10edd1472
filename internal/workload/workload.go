// Package workload generates the synthetic consumer universe the
// experiments run on. The paper evaluates on no dataset at all — it is a
// system paper — so, per the reproduction's substitution rules, we build a
// ground-truth generator in the standard style used to study collaborative
// filtering: every user has latent tastes (a few favoured categories and
// term preferences), products have topic structure, and a user's true
// affinity for a product is computable. Observed behaviour (queries, bids,
// purchases) is sampled from the affinity, and part of each user's
// high-affinity set is held out as the relevance judgment for
// precision/recall.
//
// Everything is deterministic given Config.Seed.
package workload

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"

	"agentrec/internal/catalog"
	"agentrec/internal/profile"
)

// Errors reported by the generator.
var (
	ErrBadConfig = errors.New("workload: invalid config")
)

// Config parameterizes the universe. Zero fields take the default in
// brackets.
type Config struct {
	Seed             uint64  // RNG seed [1]
	Users            int     // number of consumers [100]
	Products         int     // catalog size [500]
	Categories       int     // merchandise categories [10]
	SubsPerCategory  int     // sub-categories per category [3]
	TermsPerCategory int     // term vocabulary per category [12]
	TermsPerProduct  int     // characteristic terms per product [4]
	TastesPerUser    int     // latent favoured categories per user [2]
	RelevantPerUser  int     // ground-truth relevant products per user [20]
	HoldFraction     float64 // fraction of relevant set held out for eval [0.5]
	TrainBuyProb     float64 // probability a train interaction is a buy [0.5]
	NoiseEvents      int     // random off-taste queries per user [2]
	ColdStartUsers   int     // extra users generated with no train events [0]
}

func (c Config) withDefaults() Config {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	def(&c.Users, 100)
	def(&c.Products, 500)
	def(&c.Categories, 10)
	def(&c.SubsPerCategory, 3)
	def(&c.TermsPerCategory, 12)
	def(&c.TermsPerProduct, 4)
	def(&c.TastesPerUser, 2)
	def(&c.RelevantPerUser, 20)
	if c.HoldFraction <= 0 || c.HoldFraction >= 1 {
		c.HoldFraction = 0.5
	}
	if c.TrainBuyProb <= 0 || c.TrainBuyProb > 1 {
		c.TrainBuyProb = 0.5
	}
	if c.NoiseEvents < 0 {
		c.NoiseEvents = 0
	}
	if c.ColdStartUsers < 0 {
		c.ColdStartUsers = 0
	}
	return c
}

func (c Config) validate() error {
	if c.TermsPerProduct > c.TermsPerCategory {
		return fmt.Errorf("%w: TermsPerProduct %d > TermsPerCategory %d",
			ErrBadConfig, c.TermsPerProduct, c.TermsPerCategory)
	}
	if c.RelevantPerUser > c.Products {
		return fmt.Errorf("%w: RelevantPerUser %d > Products %d",
			ErrBadConfig, c.RelevantPerUser, c.Products)
	}
	return nil
}

// Event is one observed consumer interaction.
type Event struct {
	UserID    string            `json:"user_id"`
	ProductID string            `json:"product_id"`
	Behaviour profile.Behaviour `json:"behaviour"`
}

// User is one synthetic consumer with latent ground truth.
type User struct {
	ID        string             `json:"id"`
	Tastes    map[string]float64 `json:"tastes"`     // category -> affinity in (0,1]
	TermPrefs map[string]float64 `json:"term_prefs"` // term -> preference weight
	Train     []Event            `json:"train"`      // observed interactions
	Held      []string           `json:"held"`       // held-out relevant product ids
	ColdStart bool               `json:"cold_start"` // generated with no train events
}

// Universe is a fully generated world.
type Universe struct {
	Config   Config
	Catalog  *catalog.Catalog
	Products []*catalog.Product
	Users    []*User
}

// Generate builds a universe from cfg.
func Generate(cfg Config) (*Universe, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15))

	cats := make([]string, cfg.Categories)
	terms := make([][]string, cfg.Categories)
	for i := range cats {
		cats[i] = fmt.Sprintf("cat%02d", i)
		terms[i] = make([]string, cfg.TermsPerCategory)
		for j := range terms[i] {
			terms[i][j] = fmt.Sprintf("c%02dt%02d", i, j)
		}
	}

	u := &Universe{Config: cfg, Catalog: catalog.New()}
	u.Products = make([]*catalog.Product, 0, cfg.Products)
	for i := 0; i < cfg.Products; i++ {
		ci := rng.IntN(cfg.Categories)
		p := &catalog.Product{
			ID:          fmt.Sprintf("p%05d", i),
			Name:        fmt.Sprintf("Product %05d", i),
			Category:    cats[ci],
			SubCategory: fmt.Sprintf("%s-sub%d", cats[ci], rng.IntN(cfg.SubsPerCategory)),
			Terms:       make(map[string]float64, cfg.TermsPerProduct),
			PriceCents:  int64(1000 + rng.IntN(200000)),
			SellerID:    fmt.Sprintf("seller%d", rng.IntN(5)),
			Stock:       1 + rng.IntN(50),
		}
		for _, t := range pick(rng, terms[ci], cfg.TermsPerProduct) {
			p.Terms[t] = 0.25 + 0.75*rng.Float64()
		}
		if err := u.Catalog.Add(p); err != nil {
			return nil, err
		}
		u.Products = append(u.Products, p)
	}

	total := cfg.Users + cfg.ColdStartUsers
	u.Users = make([]*User, 0, total)
	for i := 0; i < total; i++ {
		usr := &User{
			ID:        fmt.Sprintf("u%04d", i),
			Tastes:    make(map[string]float64, cfg.TastesPerUser),
			TermPrefs: make(map[string]float64),
			ColdStart: i >= cfg.Users,
		}
		tasteCats := rng.Perm(cfg.Categories)[:cfg.TastesPerUser]
		for _, ci := range tasteCats {
			usr.Tastes[cats[ci]] = 0.5 + 0.5*rng.Float64()
			for _, t := range pick(rng, terms[ci], cfg.TermsPerCategory/2) {
				usr.TermPrefs[t] = 0.5 + 0.5*rng.Float64()
			}
		}
		u.generateInteractions(rng, usr)
		u.Users = append(u.Users, usr)
	}
	return u, nil
}

// Affinity is the latent ground-truth utility of product p for user usr:
// the taste for its category scaled by term-preference overlap.
func (u *Universe) Affinity(usr *User, p *catalog.Product) float64 {
	taste := usr.Tastes[p.Category]
	if taste == 0 {
		return 0
	}
	overlap := 0.0
	for t, w := range p.Terms {
		overlap += w * usr.TermPrefs[t]
	}
	return taste * (0.1 + overlap)
}

// generateInteractions computes the user's relevant set, splits it into
// train/held, and samples behaviour over the train portion.
func (u *Universe) generateInteractions(rng *rand.Rand, usr *User) {
	type scored struct {
		id  string
		aff float64
	}
	ranked := make([]scored, 0, len(u.Products))
	for _, p := range u.Products {
		if aff := u.Affinity(usr, p); aff > 0 {
			ranked = append(ranked, scored{p.ID, aff})
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].aff != ranked[j].aff {
			return ranked[i].aff > ranked[j].aff
		}
		return ranked[i].id < ranked[j].id
	})
	n := u.Config.RelevantPerUser
	if n > len(ranked) {
		n = len(ranked)
	}
	relevant := ranked[:n]

	// Shuffle then split so held-out items span the affinity range.
	idx := rng.Perm(len(relevant))
	hold := int(float64(len(relevant)) * u.Config.HoldFraction)
	for i, j := range idx {
		id := relevant[j].id
		if i < hold {
			usr.Held = append(usr.Held, id)
			continue
		}
		if usr.ColdStart {
			continue // cold-start users observe nothing
		}
		usr.Train = append(usr.Train, Event{UserID: usr.ID, ProductID: id, Behaviour: profile.BehaviourQuery})
		b := profile.BehaviourQuery
		if rng.Float64() < u.Config.TrainBuyProb {
			b = profile.BehaviourBuy
		}
		usr.Train = append(usr.Train, Event{UserID: usr.ID, ProductID: id, Behaviour: b})
	}
	sort.Strings(usr.Held)
	if usr.ColdStart {
		return
	}
	for i := 0; i < u.Config.NoiseEvents; i++ {
		p := u.Products[rng.IntN(len(u.Products))]
		usr.Train = append(usr.Train, Event{UserID: usr.ID, ProductID: p.ID, Behaviour: profile.BehaviourQuery})
	}
}

// BuildProfile replays a user's train events through the Fig 4.4 update
// rule and returns the learned profile.
func (u *Universe) BuildProfile(usr *User) (*profile.Profile, error) {
	return u.BuildProfileAlpha(usr, profile.DefaultAlpha)
}

// Profiles builds every user's learned profile, in Users order: the seeded
// community a harness installs before it drives load or measures quality.
func (u *Universe) Profiles() ([]*profile.Profile, error) {
	out := make([]*profile.Profile, len(u.Users))
	for i, usr := range u.Users {
		p, err := u.BuildProfile(usr)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// BuildProfileAlpha is BuildProfile with an explicit learning rate, for the
// F4.4 sweep.
func (u *Universe) BuildProfileAlpha(usr *User, alpha float64) (*profile.Profile, error) {
	p, err := profile.NewProfileAlpha(usr.ID, alpha)
	if err != nil {
		return nil, err
	}
	for _, ev := range usr.Train {
		prod, err := u.Catalog.Get(ev.ProductID)
		if err != nil {
			return nil, fmt.Errorf("workload: replaying %s: %w", usr.ID, err)
		}
		if err := p.Observe(prod.Evidence(ev.Behaviour)); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Purchases returns the set of product ids each user bought in training,
// the transaction history the CF recommender mines.
func (u *Universe) Purchases() map[string][]string {
	out := make(map[string][]string, len(u.Users))
	for _, usr := range u.Users {
		seen := make(map[string]bool)
		for _, ev := range usr.Train {
			if ev.Behaviour == profile.BehaviourBuy && !seen[ev.ProductID] {
				seen[ev.ProductID] = true
				out[usr.ID] = append(out[usr.ID], ev.ProductID)
			}
		}
		sort.Strings(out[usr.ID])
	}
	return out
}

// pick returns k distinct elements of pool, deterministically from rng.
func pick(rng *rand.Rand, pool []string, k int) []string {
	if k >= len(pool) {
		out := make([]string, len(pool))
		copy(out, pool)
		return out
	}
	idx := rng.Perm(len(pool))[:k]
	out := make([]string, k)
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}
