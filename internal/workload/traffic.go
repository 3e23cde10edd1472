package workload

// Scenario traffic schedules. A Traffic turns a generated Universe into an
// infinite, deterministic stream of platform operations — the op mix, user
// popularity skew, hot-category concentration, consumer churn, and
// adversarial shill installs are all parameters, so load scenarios are data
// rather than code (see internal/loadgen). Op(i) is a pure function of the
// op index: two replicas, two runs, or two GOMAXPROCS settings that ask for
// the same index get byte-identical operations, and concurrent workers can
// partition the index space with no coordination.

import (
	"fmt"
	"math/rand/v2"
	"sort"
)

// OpKind is one platform operation class.
type OpKind uint8

// Operation classes a scenario mixes.
const (
	OpRecommend      OpKind = iota // read: serve a top-N recommendation
	OpSetProfile                   // write: install or refresh a consumer profile
	OpRecordPurchase               // write: record one purchase
)

// String returns the schedule key used in result documents.
func (k OpKind) String() string {
	switch k {
	case OpRecommend:
		return "recommend"
	case OpSetProfile:
		return "set_profile"
	case OpRecordPurchase:
		return "purchase"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Op is one scheduled operation. The executing target interprets it; the
// load harness (internal/loadgen) makes each write op one Profile Agent
// update (recommend.Writer.Observe) of the profile the owner stores:
//   - recommend ops read;
//   - set_profile ops observe ObserveProducts, at query strength on top of
//     a seeded consumer's stored profile, at buy strength from no profile
//     for a NewUser consumer;
//   - purchase ops observe ProductID at buy strength, with its sale in the
//     same write;
//   - Shill ops are the poisoning traffic: a NewUser set_profile mimicking
//     the hot category's taste whose write also buys the promoted product.
//
// The repository benchmark (bench/) keeps its own reading of set_profile
// and purchase.
type Op struct {
	Kind            OpKind   `json:"kind"`
	UserID          string   `json:"user_id"`
	Category        string   `json:"category,omitempty"`
	ProductID       string   `json:"product_id,omitempty"`
	ObserveProducts []string `json:"observe_products,omitempty"`
	TopN            int      `json:"top_n,omitempty"`
	NewUser         bool     `json:"new_user,omitempty"`
	Shill           bool     `json:"shill,omitempty"`
}

// TrafficConfig parameterizes a schedule. Mix weights are relative (they
// need not sum to 1); a zero mix defaults to recommend-only.
type TrafficConfig struct {
	Seed uint64 `json:"seed"`

	MixRecommend  float64 `json:"mix_recommend"`
	MixSetProfile float64 `json:"mix_set_profile"`
	MixPurchase   float64 `json:"mix_purchase"`

	// UserZipfS skews which consumers act: s > 1 ranks users by a Zipf law
	// (a small head generates most traffic). Zero or <= 1 means uniform.
	UserZipfS float64 `json:"user_zipf_s,omitempty"`

	// HotCategoryShare is the fraction of recommend and purchase traffic
	// aimed at the universe's hottest category (the one with the most
	// products); within it, products are Zipf-ranked so one flash-sale
	// product dominates. Zero spreads traffic uniformly.
	HotCategoryShare float64 `json:"hot_category_share,omitempty"`

	// ChurnFraction is the fraction of set_profile ops that introduce a
	// brand-new consumer (outside the seeded universe) instead of
	// refreshing a seeded one — sustained churn grows the community.
	ChurnFraction float64 `json:"churn_fraction,omitempty"`

	// ShillFraction is the fraction of set_profile ops that install an
	// adversarial shill profile promoting ShillTarget.
	ShillFraction float64 `json:"shill_fraction,omitempty"`
	ShillTarget   string  `json:"shill_target,omitempty"`

	// TopN is the recommendation size requested by recommend ops [10].
	TopN int `json:"top_n,omitempty"`
}

// Traffic is a deterministic operation schedule over a Universe. Safe for
// concurrent use: all state is immutable after NewTraffic.
type Traffic struct {
	cfg TrafficConfig

	users       []string // seeded consumer ids, ascending
	products    []string // product ids, ascending
	categories  []string // category names, ascending
	hotCategory string
	hotProducts []string // hot category's product ids, ascending
	mixCum      [3]float64
	mixTotal    float64
}

// NewTraffic builds a schedule for u.
func NewTraffic(u *Universe, cfg TrafficConfig) (*Traffic, error) {
	if cfg.MixRecommend < 0 || cfg.MixSetProfile < 0 || cfg.MixPurchase < 0 {
		return nil, fmt.Errorf("%w: negative mix weight", ErrBadConfig)
	}
	if cfg.MixRecommend+cfg.MixSetProfile+cfg.MixPurchase == 0 {
		cfg.MixRecommend = 1
	}
	if cfg.TopN <= 0 {
		cfg.TopN = 10
	}
	if cfg.ShillFraction > 0 && cfg.ShillTarget == "" {
		return nil, fmt.Errorf("%w: ShillFraction without ShillTarget", ErrBadConfig)
	}
	t := &Traffic{cfg: cfg}
	t.mixCum[0] = cfg.MixRecommend
	t.mixCum[1] = t.mixCum[0] + cfg.MixSetProfile
	t.mixCum[2] = t.mixCum[1] + cfg.MixPurchase
	t.mixTotal = t.mixCum[2]

	t.users = make([]string, 0, len(u.Users))
	for _, usr := range u.Users {
		t.users = append(t.users, usr.ID)
	}
	sort.Strings(t.users)
	if len(t.users) == 0 {
		return nil, fmt.Errorf("%w: universe has no users", ErrBadConfig)
	}

	byCat := make(map[string][]string)
	for _, p := range u.Products {
		t.products = append(t.products, p.ID)
		byCat[p.Category] = append(byCat[p.Category], p.ID)
	}
	sort.Strings(t.products)
	for cat, ids := range byCat {
		sort.Strings(ids)
		t.categories = append(t.categories, cat)
		// Hottest category = most products, ties broken lexicographically,
		// so every run and replica agrees on where the flash sale lands.
		if t.hotCategory == "" ||
			len(ids) > len(t.hotProducts) ||
			(len(ids) == len(t.hotProducts) && cat < t.hotCategory) {
			t.hotCategory = cat
			t.hotProducts = ids
		}
	}
	sort.Strings(t.categories)
	if len(t.products) == 0 {
		return nil, fmt.Errorf("%w: universe has no products", ErrBadConfig)
	}
	return t, nil
}

// HotCategory reports where the schedule concentrates skewed traffic.
func (t *Traffic) HotCategory() string { return t.hotCategory }

// TopN reports the resolved recommendation size recommend ops request —
// the configured value after defaulting, which callers measuring ranks
// against the served lists must match.
func (t *Traffic) TopN() int { return t.cfg.TopN }

// HotProducts returns the hot category's product ids in Zipf-rank order
// (index 0 is the flash-sale product).
func (t *Traffic) HotProducts() []string {
	out := make([]string, len(t.hotProducts))
	copy(out, t.hotProducts)
	return out
}

// rng returns the op's private generator: seeded by (schedule seed, op
// index), so Op is pure in i and workers need no shared state.
func (t *Traffic) rng(i uint64) *rand.Rand {
	return rand.New(rand.NewPCG(t.cfg.Seed^0x6c6f616467656e21, i))
}

// zipfPick picks an index in [0, n) Zipf-ranked with exponent s (rank 0
// hottest), or uniformly when s <= 1.
func zipfPick(rng *rand.Rand, s float64, n int) int {
	if n <= 1 {
		return 0
	}
	if s <= 1 {
		return rng.IntN(n)
	}
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	return int(z.Uint64())
}

// Op returns operation i of the schedule. Pure: the same i always yields
// the same op, on any run, replica, or GOMAXPROCS.
func (t *Traffic) Op(i uint64) Op {
	rng := t.rng(i)
	r := rng.Float64() * t.mixTotal
	switch {
	case r < t.mixCum[0]:
		return t.recommendOp(rng)
	case r < t.mixCum[1]:
		return t.setProfileOp(rng, i)
	default:
		return t.purchaseOp(rng)
	}
}

func (t *Traffic) pickUser(rng *rand.Rand) string {
	return t.users[zipfPick(rng, t.cfg.UserZipfS, len(t.users))]
}

// pickProduct draws a product: with probability HotCategoryShare a
// Zipf-ranked hot-category product, otherwise uniform over the catalog.
func (t *Traffic) pickProduct(rng *rand.Rand) (id, category string) {
	if t.cfg.HotCategoryShare > 0 && rng.Float64() < t.cfg.HotCategoryShare {
		return t.hotProducts[zipfPick(rng, 1.4, len(t.hotProducts))], t.hotCategory
	}
	return t.products[rng.IntN(len(t.products))], ""
}

func (t *Traffic) recommendOp(rng *rand.Rand) Op {
	op := Op{Kind: OpRecommend, UserID: t.pickUser(rng), TopN: t.cfg.TopN}
	if t.cfg.HotCategoryShare > 0 && rng.Float64() < t.cfg.HotCategoryShare {
		op.Category = t.hotCategory
	} else {
		op.Category = t.categories[rng.IntN(len(t.categories))]
	}
	return op
}

func (t *Traffic) setProfileOp(rng *rand.Rand, i uint64) Op {
	if f := t.cfg.ShillFraction; f > 0 && rng.Float64() < f {
		// One shill identity per op index: the attack grows the community,
		// it does not overwrite itself.
		obs := []string{t.cfg.ShillTarget}
		for k := 0; k < 3 && k < len(t.hotProducts); k++ {
			obs = append(obs, t.hotProducts[k])
		}
		return Op{
			Kind:            OpSetProfile,
			UserID:          fmt.Sprintf("shill-%08d", i),
			ProductID:       t.cfg.ShillTarget,
			ObserveProducts: obs,
			NewUser:         true,
			Shill:           true,
		}
	}
	if f := t.cfg.ChurnFraction; f > 0 && rng.Float64() < f {
		obs := make([]string, 0, 3)
		for k := 0; k < 3; k++ {
			id, _ := t.pickProduct(rng)
			obs = append(obs, id)
		}
		return Op{
			Kind:            OpSetProfile,
			UserID:          fmt.Sprintf("churn-%08d", i),
			ObserveProducts: obs,
			NewUser:         true,
		}
	}
	id, _ := t.pickProduct(rng)
	return Op{
		Kind:            OpSetProfile,
		UserID:          t.pickUser(rng),
		ObserveProducts: []string{id},
	}
}

func (t *Traffic) purchaseOp(rng *rand.Rand) Op {
	id, cat := t.pickProduct(rng)
	return Op{Kind: OpRecordPurchase, UserID: t.pickUser(rng), ProductID: id, Category: cat}
}
