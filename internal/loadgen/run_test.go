package loadgen

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// tiny shrinks a library scenario to unit-test size (fractions of the CI
// smoke size — these run inside go test).
func tiny(t *testing.T, name string) Scenario {
	t.Helper()
	s, ok := Lookup(name)
	if !ok {
		t.Fatalf("no library scenario %q", name)
	}
	s = s.Smoke()
	s.Users = 300
	s.Products = 120
	s.RateOpsS = 300
	s.DurationS = 1
	if s.ColdFollower {
		s.ColdFollowerDelayS = 0.2
	}
	if s.ShillProbes > 0 {
		s.ShillProbes = 15
	}
	return s
}

func runTiny(t *testing.T, s Scenario, opt RunOptions) *ScenarioResult {
	t.Helper()
	res, err := RunScenario(context.Background(), s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatalf("result fails its own schema check: %v", err)
	}
	return res
}

// TestRunScenarioFlashSale: the replicated 2-server flash-sale smoke, end
// to end: seed, drive, drain, document.
func TestRunScenarioFlashSale(t *testing.T) {
	res := runTiny(t, tiny(t, "flash-sale"), RunOptions{Servers: 2})
	if res.Servers != 2 || res.Target != "platform" {
		t.Fatalf("ran against %s/%d servers, want platform/2", res.Target, res.Servers)
	}
	if _, ok := res.LatencyMs["recommend"]; !ok {
		t.Fatal("no recommend latency recorded")
	}
	if res.Metrics == nil || res.Metrics.UsersAfter < res.Metrics.UsersBefore {
		t.Fatalf("metrics delta missing or shrank: %+v", res.Metrics)
	}
}

// TestRunScenarioColdFollower: a server joining mid-run must bootstrap via
// the paged snapshot protocol and end caught up.
func TestRunScenarioColdFollower(t *testing.T) {
	res := runTiny(t, tiny(t, "cold-follower"), RunOptions{Servers: 2})
	cf := res.ColdFollower
	if cf == nil {
		t.Fatal("no cold follower measurement")
	}
	if cf.ShardsBootstrapped == 0 || cf.BootstrapMs <= 0 {
		t.Fatalf("bootstrap did not run: %+v", cf)
	}
	if cf.PagesPulled == 0 {
		t.Fatalf("bootstrap bypassed the paged protocol: %+v", cf)
	}
	if cf.UsersOnCold == 0 || cf.UsersOnCold < cf.UsersOnWarm/2 {
		t.Fatalf("cold server ended with %d users vs warm %d; bootstrap incomplete",
			cf.UsersOnCold, cf.UsersOnWarm)
	}
}

// TestRunScenarioShilling: the attack must be measured — and with a shill
// flood this dense, it must visibly promote the target.
func TestRunScenarioShilling(t *testing.T) {
	s := tiny(t, "shilling")
	s.DurationS = 1.5
	res := runTiny(t, s, RunOptions{Servers: 2})
	sh := res.Shilling
	if sh == nil {
		t.Fatal("no shilling measurement")
	}
	if sh.TargetProduct == "" || sh.HotCategory == "" || sh.Probes == 0 {
		t.Fatalf("shill measurement incomplete: %+v", sh)
	}
	// Regression: the baseline must measure ranks against the same list
	// size the traffic requests (a zero TopN collapses every rank to
	// "absent" and the displacement to noise).
	if sh.TopN <= 0 {
		t.Fatalf("shill baseline ran with TopN = %d, want the traffic's resolved top-N", sh.TopN)
	}
	if sh.MeanTargetRankBefore <= 0 || sh.MeanTargetRankBefore > float64(sh.TopN+1) {
		t.Fatalf("mean_target_rank_before = %g out of range [1,%d]", sh.MeanTargetRankBefore, sh.TopN+1)
	}
	if sh.ShillProfiles == 0 {
		t.Fatal("no shill profiles installed; the attack never ran")
	}
	if sh.MeanNeighborShillShare == 0 && sh.MeanRankDisplacement == 0 {
		t.Fatalf("attack left no measurable trace: %+v", sh)
	}
}

// TestRunScenarioSingleServer: a one-server platform, following no shard,
// works too.
func TestRunScenarioSingleServer(t *testing.T) {
	res := runTiny(t, tiny(t, "flash-sale"), RunOptions{Servers: 1})
	if res.Servers != 1 {
		t.Fatalf("servers = %d", res.Servers)
	}
	if res.Metrics.LagRecordsEnd != 0 {
		t.Fatal("single-server run cannot have replication lag")
	}
}

// TestRunScenarioRejects: an invalid scenario fails up front.
func TestRunScenarioRejects(t *testing.T) {
	ctx := context.Background()
	if _, err := RunScenario(ctx, Scenario{Name: "bad", RateOpsS: 0, DurationS: 1, MixRecommend: 1}, RunOptions{}); err == nil {
		t.Error("zero rate accepted")
	}
}

// TestWriteReadResult: the document round-trips through the committed file
// form and still passes the schema check.
func TestWriteReadResult(t *testing.T) {
	res := runTiny(t, tiny(t, "flash-sale"), RunOptions{Servers: 2})
	path := filepath.Join(t.TempDir(), "BENCH_flash-sale.json")
	if err := WriteResult(path, res); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Check(); err != nil {
		t.Fatalf("round-tripped result fails schema check: %v", err)
	}
	if back.Scenario != res.Scenario || back.Completed != res.Completed {
		t.Fatal("round trip lost fields")
	}
	data, _ := os.ReadFile(path)
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatal("committed file must end with a newline")
	}
}

// TestResultCheckRejects: the schema gate actually gates.
func TestResultCheckRejects(t *testing.T) {
	good := runTiny(t, tiny(t, "flash-sale"), RunOptions{Servers: 2})
	mutate := []struct {
		name string
		fn   func(r *ScenarioResult)
	}{
		{"error count", func(r *ScenarioResult) { r.ErrorCount = 3 }},
		{"accounting", func(r *ScenarioResult) { r.Attempted++ }},
		{"no name", func(r *ScenarioResult) { r.Scenario = "" }},
		{"no throughput", func(r *ScenarioResult) { r.ThroughputOpsS = 0 }},
		{"percentile order", func(r *ScenarioResult) {
			l := r.LatencyMs["all"]
			l.P99Ms = l.P50Ms / 2
			r.LatencyMs["all"] = l
		}},
		{"latency count", func(r *ScenarioResult) {
			l := r.LatencyMs["all"]
			l.Count++
			r.LatencyMs["all"] = l
		}},
	}
	for _, m := range mutate {
		r := *good
		r.LatencyMs = make(map[string]LatencySummary, len(good.LatencyMs))
		for k, v := range good.LatencyMs {
			r.LatencyMs[k] = v
		}
		m.fn(&r)
		if err := r.Check(); err == nil {
			t.Errorf("Check accepted a result with broken %s", m.name)
		}
	}
}
