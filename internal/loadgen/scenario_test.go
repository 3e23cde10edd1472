package loadgen

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLibraryScenariosValid: every shipped scenario (and its CI smoke
// reduction) validates, and names are unique.
func TestLibraryScenariosValid(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Library {
		if seen[s.Name] {
			t.Fatalf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		if err := s.withDefaults().Validate(); err != nil {
			t.Errorf("library scenario %q invalid: %v", s.Name, err)
		}
		if err := s.Smoke().withDefaults().Validate(); err != nil {
			t.Errorf("smoke reduction of %q invalid: %v", s.Name, err)
		}
	}
	for _, want := range []string{"flash-sale", "cold-follower", "failover", "shilling"} {
		if !seen[want] {
			t.Errorf("library is missing the %s scenario the ROADMAP names", want)
		}
	}
}

// TestScenarioValidateRejects: contradictory documents fail validation.
func TestScenarioValidateRejects(t *testing.T) {
	base := Scenario{Name: "x", RateOpsS: 100, DurationS: 5, MixRecommend: 1}
	cases := []struct {
		name string
		fn   func(s *Scenario)
	}{
		{"zero rate", func(s *Scenario) { s.RateOpsS = 0 }},
		{"negative duration", func(s *Scenario) { s.DurationS = -1 }},
		{"no name", func(s *Scenario) { s.Name = "" }},
		{"negative mix", func(s *Scenario) { s.MixRecommend = -1 }},
		{"zero mix", func(s *Scenario) { s.MixRecommend = 0 }},
		{"fraction range", func(s *Scenario) { s.HotCategoryShare = 1.5 }},
		{"churn without writes", func(s *Scenario) { s.ChurnFraction = 0.5 }},
		{"shill without writes", func(s *Scenario) { s.ShillFraction = 0.5 }},
		{"cold delay past end", func(s *Scenario) { s.ColdFollower = true; s.ColdFollowerDelayS = 10 }},
	}
	for _, tc := range cases {
		s := base
		tc.fn(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validation accepted %+v", tc.name, s)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base scenario must be valid: %v", err)
	}
}

// TestLookupAndScenarios: name resolution round-trips the library.
func TestLookupAndScenarios(t *testing.T) {
	names := Scenarios()
	if len(names) != len(Library) {
		t.Fatalf("Scenarios() lists %d names, library has %d", len(names), len(Library))
	}
	for _, name := range names {
		if _, ok := Lookup(name); !ok {
			t.Errorf("Lookup(%q) failed for a listed scenario", name)
		}
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Error("Lookup invented a scenario")
	}
}

// TestLoadScenarioFile: the JSON escape hatch loads custom scenarios.
func TestLoadScenarioFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "custom.json")
	doc := `{"name":"custom","rate_ops_s":50,"duration_s":2,"mix_recommend":1,"users":100}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "custom" || s.RateOpsS != 50 {
		t.Fatalf("loaded %+v", s)
	}
	if err := s.withDefaults().Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadScenario(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if _, err := LoadScenario(bad); err == nil {
		t.Error("malformed JSON accepted")
	}
	// A key the Scenario does not have — a retired setting or a misspelt
	// one — is refused by name, never silently dropped.
	for field, doc := range map[string]string{
		"max_resident_shards": `{"name":"spill","rate_ops_s":50,"duration_s":2,"mix_recommend":1,"max_resident_shards":4}`,
		"shape":               `{"name":"sine","rate_ops_s":50,"duration_s":2,"mix_recommend":1,"shape":"sine"}`,
		"mix_recomend":        `{"name":"typo","rate_ops_s":50,"duration_s":2,"mix_recomend":1}`,
	} {
		path := filepath.Join(t.TempDir(), field+".json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadScenario(path); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("document setting %s loaded with %v, want an error naming the field", field, err)
		}
	}
}

// TestSmokeScaling: Smoke caps the knobs CI cares about without touching
// the mix, including for a document that leaves the universe size to the
// defaults — which must be capped too, and still run.
func TestSmokeScaling(t *testing.T) {
	unsized := Scenario{Name: "custom", RateOpsS: 50, DurationS: 1, MixRecommend: 1}
	for _, s := range append(Library[:len(Library):len(Library)], unsized) {
		sm := s.Smoke()
		if sm.Users > 2000 || sm.Products > 400 || sm.RateOpsS > 400 || sm.DurationS > 3 {
			t.Errorf("%s smoke too big: %d users, %d products, %g ops/s, %gs",
				s.Name, sm.Users, sm.Products, sm.RateOpsS, sm.DurationS)
		}
		if sm.MixRecommend != s.MixRecommend || sm.ChurnFraction != s.ChurnFraction {
			t.Errorf("%s smoke changed the scenario character", s.Name)
		}
	}
	if _, err := RunScenario(context.Background(), unsized.Smoke(), RunOptions{Servers: 1}); err != nil {
		t.Fatalf("smoke of a scenario with default sizes: %v", err)
	}
}
