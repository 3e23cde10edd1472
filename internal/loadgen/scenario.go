package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"agentrec/internal/workload"
)

// Scenario is one scripted load scenario: a plain data document (JSON
// round-trippable, no code) naming the universe to generate, the arrival
// process, and the traffic mix. cmd/recbench resolves built-ins from
// Library by name or loads a custom scenario from a JSON file, so new
// scenarios need no recompilation.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// Universe sizing (workload.Generate).
	Seed       uint64 `json:"seed,omitempty"`       // [1]
	Users      int    `json:"users,omitempty"`      // seeded consumers [10000]
	Products   int    `json:"products,omitempty"`   // catalog size [Users/10, min 500]
	Categories int    `json:"categories,omitempty"` // [16]

	// Arrival process (open loop, constant rate).
	RateOpsS  float64 `json:"rate_ops_s"` // arrival rate
	DurationS float64 `json:"duration_s"` // scheduled load window

	// Traffic mix and skew (workload.TrafficConfig).
	MixRecommend     float64 `json:"mix_recommend"`
	MixSetProfile    float64 `json:"mix_set_profile"`
	MixPurchase      float64 `json:"mix_purchase"`
	UserZipfS        float64 `json:"user_zipf_s,omitempty"`
	HotCategoryShare float64 `json:"hot_category_share,omitempty"`
	ChurnFraction    float64 `json:"churn_fraction,omitempty"`

	// ColdFollower adds one extra cold server to the replicated world: it
	// owns its static shard slice but takes no driver traffic, joins with
	// empty replicas after ColdFollowerDelayS of load, and bootstraps every
	// other shard through the paged snapshot protocol (page budget
	// ColdFollowerPageBytes) while writes continue.
	ColdFollower          bool    `json:"cold_follower,omitempty"`
	ColdFollowerDelayS    float64 `json:"cold_follower_delay_s,omitempty"`    // [10% of DurationS]
	ColdFollowerPageBytes int     `json:"cold_follower_page_bytes,omitempty"` // [256 KiB]

	// Failover turns the scenario into a kill-the-owner chaos drill: the
	// world runs coordinator-mediated elastic ownership over >=3 servers,
	// and after FailoverDelayS of load the static owner of the most shards
	// stops renewing its lease and refusing writes (staged crash). The
	// runner measures the write-unavailability window until the promoted
	// follower accepts writes again, audits that no acknowledged write was
	// lost, and verifies the deposed owner's replayed writes are fenced
	// (see failover.go).
	Failover        bool    `json:"failover,omitempty"`
	FailoverDelayS  float64 `json:"failover_delay_s,omitempty"`  // [25% of DurationS]
	FailoverLeaseMs int     `json:"failover_lease_ms,omitempty"` // coordinator lease TTL [1000]

	// ShillFraction > 0 turns the scenario adversarial: that fraction of
	// set_profile ops installs shill profiles promoting one hot product,
	// and the runner measures the attack's rank-displacement impact on the
	// CF neighbourhoods (see shilling.go).
	ShillFraction float64 `json:"shill_fraction,omitempty"`
	ShillProbes   int     `json:"shill_probes,omitempty"` // probe consumers measured [100]
}

// withDefaults fills the bracketed defaults.
func (s Scenario) withDefaults() Scenario {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Users <= 0 {
		s.Users = 10000
	}
	if s.Products <= 0 {
		s.Products = max(500, s.Users/10)
	}
	if s.Categories <= 0 {
		s.Categories = 16
	}
	if s.ColdFollower {
		if s.ColdFollowerDelayS <= 0 {
			s.ColdFollowerDelayS = s.DurationS / 10
		}
		if s.ColdFollowerPageBytes <= 0 {
			s.ColdFollowerPageBytes = 256 << 10
		}
	}
	if s.Failover {
		if s.FailoverDelayS <= 0 {
			s.FailoverDelayS = s.DurationS / 4
		}
		if s.FailoverLeaseMs <= 0 {
			// The TTL must dominate scheduler and GC jitter under full load
			// (renewals come from ordinary goroutines), or the authority sees
			// phantom deaths and the map flaps. 1s holds up even on a
			// single-CPU runner; the renew cadence is TTL/3.
			s.FailoverLeaseMs = 1000
		}
	}
	if s.ShillFraction > 0 && s.ShillProbes <= 0 {
		s.ShillProbes = 100
	}
	return s
}

// Validate rejects a scenario the runner cannot execute faithfully.
func (s Scenario) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("loadgen: scenario %q: %s", s.Name, fmt.Sprintf(format, args...))
	}
	if s.Name == "" {
		return fmt.Errorf("loadgen: scenario has no name")
	}
	if s.RateOpsS <= 0 {
		return bad("rate_ops_s must be positive, got %g", s.RateOpsS)
	}
	if s.DurationS <= 0 {
		return bad("duration_s must be positive, got %g", s.DurationS)
	}
	if s.MixRecommend < 0 || s.MixSetProfile < 0 || s.MixPurchase < 0 {
		return bad("mix weights must be non-negative")
	}
	if s.MixRecommend+s.MixSetProfile+s.MixPurchase <= 0 {
		return bad("mix weights sum to zero")
	}
	for name, v := range map[string]float64{
		"hot_category_share": s.HotCategoryShare,
		"churn_fraction":     s.ChurnFraction,
		"shill_fraction":     s.ShillFraction,
	} {
		if v < 0 || v > 1 {
			return bad("%s must be in [0,1], got %g", name, v)
		}
	}
	if s.ChurnFraction > 0 && s.MixSetProfile <= 0 {
		return bad("churn_fraction needs a set_profile share in the mix")
	}
	if s.ShillFraction > 0 && s.MixSetProfile <= 0 {
		return bad("shill_fraction needs a set_profile share in the mix")
	}
	if s.ColdFollower && s.ColdFollowerDelayS >= s.DurationS {
		return bad("cold_follower_delay_s %g must fall inside duration_s %g",
			s.ColdFollowerDelayS, s.DurationS)
	}
	if s.Failover {
		if s.ColdFollower {
			return bad("failover and cold_follower are mutually exclusive chaos modes")
		}
		if s.FailoverDelayS >= s.DurationS {
			return bad("failover_delay_s %g must fall inside duration_s %g",
				s.FailoverDelayS, s.DurationS)
		}
		if s.MixSetProfile+s.MixPurchase <= 0 {
			return bad("failover measures write availability and needs a write share in the mix")
		}
	}
	return nil
}

// Smoke returns the scenario scaled down to CI size — seconds of load over
// thousands of users — preserving its mix and skew. Defaults are filled
// first, so a field the document leaves unset is capped at its default's
// size rather than left for RunScenario to fill at full size.
func (s Scenario) Smoke() Scenario {
	s = s.withDefaults()
	s.Users = min(s.Users, 2000)
	s.Products = min(s.Products, 400)
	s.RateOpsS = min(s.RateOpsS, 400)
	s.DurationS = min(s.DurationS, 3)
	if s.ColdFollower {
		s.ColdFollowerDelayS = min(s.ColdFollowerDelayS, s.DurationS/4)
	}
	if s.Failover {
		s.FailoverDelayS = min(s.FailoverDelayS, s.DurationS/4)
	}
	if s.ShillProbes > 0 {
		s.ShillProbes = min(s.ShillProbes, 25)
	}
	return s
}

// Library is the shipped scenario set: the production shapes the ROADMAP
// names, each a data document. Sizes are calibrated so a full run drains in
// a couple of minutes on a single core even when the offered rate exceeds
// engine capacity (flash-sale does so deliberately — the open-loop backlog
// IS the measurement); recbench's -users/-rate/-duration flags scale any of
// them up (to the million-user shape) or down without code changes.
var Library = []Scenario{
	{
		Name:        "flash-sale",
		Description: "hot-product skew: most traffic slams one Zipf-ranked category while purchases spike on its head product; offered rate deliberately exceeds capacity so the open-loop backlog inflates the tail",
		Users:       10000, Products: 1200, Categories: 16, Seed: 1,
		RateOpsS: 300, DurationS: 15,
		MixRecommend: 0.80, MixSetProfile: 0.05, MixPurchase: 0.15,
		UserZipfS: 1.2, HotCategoryShare: 0.8,
	},
	{
		Name:        "cold-follower",
		Description: "a cold server joins a replicated deployment mid-run and bootstraps every shard via paged snapshots while sustained writes continue",
		Users:       8000, Products: 1000, Categories: 16, Seed: 1,
		RateOpsS: 120, DurationS: 30,
		MixRecommend: 0.40, MixSetProfile: 0.25, MixPurchase: 0.35,
		ColdFollower: true, ColdFollowerDelayS: 5,
	},
	{
		Name:        "failover",
		Description: "kill-the-owner chaos drill: mid-run the busiest owner stops renewing its coordinator lease and refuses writes; the most caught-up follower is promoted, blocked writes retry through the transition, and the run measures the write-unavailability window, fenced stale-epoch replays, and post-promotion divergence (must be zero)",
		Users:       8000, Products: 1000, Categories: 16, Seed: 1,
		RateOpsS: 120, DurationS: 30,
		MixRecommend: 0.40, MixSetProfile: 0.30, MixPurchase: 0.30,
		Failover: true, FailoverDelayS: 10, FailoverLeaseMs: 1000,
	},
	{
		Name:        "shilling",
		Description: "profile-shilling attack: fake consumers mimic the hot category's taste and all buy one promoted product; measures CF rank displacement and neighbourhood contamination",
		Users:       8000, Products: 1000, Categories: 16, Seed: 1,
		RateOpsS: 150, DurationS: 30,
		MixRecommend: 0.55, MixSetProfile: 0.30, MixPurchase: 0.15,
		HotCategoryShare: 0.5,
		ShillFraction:    0.5, ShillProbes: 100,
	},
}

// Scenarios returns the built-in scenario names, sorted.
func Scenarios() []string {
	out := make([]string, len(Library))
	for i, s := range Library {
		out[i] = s.Name
	}
	sort.Strings(out)
	return out
}

// Lookup resolves a built-in scenario by name.
func Lookup(name string) (Scenario, bool) {
	for _, s := range Library {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// LoadScenario reads a scenario document from a JSON file — the escape
// hatch that keeps the library data: a scenario nobody shipped is a file,
// not a fork. A key the Scenario does not have is refused by name rather
// than dropped, so a misspelt or retired setting never runs silently
// without the effect it asks for.
func LoadScenario(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("loadgen: parsing scenario %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Scenario{}, fmt.Errorf("loadgen: parsing scenario %s: data after the scenario document", path)
	}
	return s, nil
}

// driveConfig translates the scenario's arrival process.
func (s Scenario) driveConfig(workers int) DriveConfig {
	return DriveConfig{Rate: s.RateOpsS, Duration: secs(s.DurationS), Workers: workers}
}

// trafficConfig translates the scenario's mix for a generated universe.
func (s Scenario) trafficConfig(shillTarget string) workload.TrafficConfig {
	return workload.TrafficConfig{
		Seed:             s.Seed,
		MixRecommend:     s.MixRecommend,
		MixSetProfile:    s.MixSetProfile,
		MixPurchase:      s.MixPurchase,
		UserZipfS:        s.UserZipfS,
		HotCategoryShare: s.HotCategoryShare,
		ChurnFraction:    s.ChurnFraction,
		ShillFraction:    s.ShillFraction,
		ShillTarget:      shillTarget,
	}
}

// incident names the world the scenario runs on and when its one mid-run
// incident fires (0 = none): the cold server's join or the owner kill.
func (s Scenario) incident() (target string, delayS float64) {
	switch {
	case s.ColdFollower:
		return "cold-follower", s.ColdFollowerDelayS
	case s.Failover:
		return "failover", s.FailoverDelayS
	}
	return "platform", 0
}
