package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"agentrec/internal/catalog"
	"agentrec/internal/kvstore"
	"agentrec/internal/platform"
	"agentrec/internal/profile"
	"agentrec/internal/recommend"
	"agentrec/internal/workload"
)

// TestFailoverScenarioChaos is the kill-the-owner drill end to end: a
// 3-server elastic world under mixed write load loses the owner of the
// most shards mid-run. The coordinator must promote a caught-up follower,
// every write acknowledged to the driver must survive, the deposed owner's
// replayed writes must bounce off the epoch fence, and the survivors'
// durable state — the WAL live view, compared byte for byte — must be
// identical afterwards.
func TestFailoverScenarioChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos scenario")
	}
	s, ok := Lookup("failover")
	if !ok {
		t.Fatal("failover scenario missing from the library")
	}
	s = s.Smoke()
	stateDir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := RunScenario(ctx, s, RunOptions{Servers: 3, StateDir: stateDir, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Target != "failover" || res.Servers != 3 {
		t.Fatalf("target %q over %d servers, want failover over 3", res.Target, res.Servers)
	}
	fo := res.Failover
	if fo == nil {
		t.Fatal("result carries no failover section")
	}
	if fo.PromotedEpoch < 2 {
		t.Fatalf("promoted epoch %d: the authority never moved the map", fo.PromotedEpoch)
	}
	if fo.ShardsMoved == 0 {
		t.Fatal("no shards moved off the dead owner")
	}
	if fo.WriteUnavailabilityMs <= 0 {
		t.Fatalf("write unavailability %.2fms: the kill left no measurable window", fo.WriteUnavailabilityMs)
	}
	if fo.KilledAtS <= 0 || fo.KilledAtS >= s.DurationS {
		t.Fatalf("kill at %.2fs, want inside the %gs run", fo.KilledAtS, s.DurationS)
	}
	if fo.AckedWrites == 0 {
		t.Fatal("no writes were acknowledged — the drill measured nothing")
	}
	if fo.LostAckedWrites != 0 {
		t.Fatalf("%d acknowledged writes lost across the promotion", fo.LostAckedWrites)
	}
	if res.Metrics == nil || fo.StaleWritesRejected != res.Metrics.ShardsPerEngine {
		t.Fatalf("stale replays rejected = %d, want one per shard (%+v)", fo.StaleWritesRejected, res.Metrics)
	}
	if fo.DivergentShards != 0 {
		t.Fatalf("%d shards diverged between the survivors", fo.DivergentShards)
	}

	// The survivors' durable community state must be byte-identical: the
	// WAL's live view dumps buckets and keys in sorted order, so equal
	// state means equal bytes. The victim (server 0) is excluded — its WAL
	// legitimately froze at the kill.
	snap1 := walLiveSnapshot(t, filepath.Join(stateDir, "server-1"))
	snap2 := walLiveSnapshot(t, filepath.Join(stateDir, "server-2"))
	if !bytes.Equal(snap1, snap2) {
		t.Fatalf("survivor WAL live states differ: %d vs %d bytes", len(snap1), len(snap2))
	}
	if len(snap1) == 0 {
		t.Fatal("survivor WAL live state is empty")
	}
}

// TestFailoverWindowIgnoresWriteAdmittedBeforeKill: a victim-shard write
// admitted before the victim's gate closed and acknowledged only after the
// kill does not close the write-unavailability window. Only a write begun
// after the gate closed does, which the probe supplies once a survivor is
// promoted.
func TestFailoverWindowIgnoresWriteAdmittedBeforeKill(t *testing.T) {
	s, ok := Lookup("failover")
	if !ok {
		t.Fatal("failover scenario missing from the library")
	}
	s = s.Smoke()
	s.Users, s.Products = 200, 100
	u, err := workload.Generate(workload.Config{Seed: s.Seed, Users: s.Users, Products: s.Products, Categories: s.Categories})
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorld(s, u, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// The write is in flight across the kill: the owner accepts it before
	// its gate closes, and its acknowledgement reaches the driver after.
	user := w.userOnShard("in-flight", w.victimShard())
	begun := time.Now()
	if err := w.replicas[1].Router.SetProfile(profile.NewProfile(user)); err != nil {
		t.Fatal(err)
	}
	if err := w.Kill(ctx); err != nil {
		t.Fatal(err)
	}
	w.noteAcked(user, begun)
	w.resMu.Lock()
	closedEarly := !w.recovW.IsZero()
	w.resMu.Unlock()
	if closedEarly {
		t.Fatal("a write admitted before the gate closed closed the unavailability window")
	}

	w.probeWG.Wait()
	w.resMu.Lock()
	killedW, recovW, probeEr := w.killedW, w.recovW, w.probeEr
	w.resMu.Unlock()
	if probeEr != nil || recovW.IsZero() {
		t.Fatalf("the probe never closed the window (%v)", probeEr)
	}
	if !recovW.After(killedW) {
		t.Fatalf("window closed at %v, not after the kill at %v", recovW, killedW)
	}
}

// TestDivergentShardsReportsALaggingReplica: the convergence check finds
// nothing on a caught-up pair of servers, and names the shard and the
// servers when one replica misses a single purchase.
func TestDivergentShardsReportsALaggingReplica(t *testing.T) {
	cat := catalog.New()
	if err := cat.Upsert(&catalog.Product{ID: "p1", Name: "P1", Category: "laptop", PriceCents: 100, SellerID: "s", Stock: 10}); err != nil {
		t.Fatal(err)
	}
	var rs []*platform.Replica
	for i := 0; i < 2; i++ {
		r, err := platform.NewReplica(platform.ReplicaConfig{Self: i, Servers: 2, Catalog: cat})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Engine.Close()
		rs = append(rs, r)
	}
	for i, r := range rs {
		if err := r.Connect(platform.LocalLinks(rs, i)); err != nil {
			t.Fatal(err)
		}
	}
	buy := func(user string) {
		t.Helper()
		if err := rs[0].Router.Observe(user, nil, []recommend.PurchasePair{{UserID: user, ProductID: "p1"}}); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 20; k++ {
		buy("buyer-" + strconv.Itoa(k))
	}
	for _, r := range rs {
		if err := r.Replicator.Sync(t.Context()); err != nil {
			t.Fatal(err)
		}
	}
	if div, err := divergentShards(rs, []int{0, 1}); err != nil || len(div) != 0 {
		t.Fatalf("caught-up pair: divergence %v, err %v", div, err)
	}

	// One more purchase that server 1 has not pulled yet.
	buy("late-buyer")
	div, err := divergentShards(rs, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("shard %d diverged: server 1's replica differs from server 0's", rs[0].Engine.ShardOf("late-buyer"))
	if len(div) != 1 || div[0].Error() != want {
		t.Fatalf("divergence = %v, want [%s]", div, want)
	}
}

func walLiveSnapshot(t *testing.T, dir string) []byte {
	t.Helper()
	store, err := kvstore.Open(filepath.Join(dir, recommend.CommunityWAL))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var buf bytes.Buffer
	if err := store.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFailoverScenarioValidation(t *testing.T) {
	base := Scenario{Name: "x", RateOpsS: 10, DurationS: 10,
		MixRecommend: 0.5, MixSetProfile: 0.25, MixPurchase: 0.25, Failover: true}

	if err := base.withDefaults().Validate(); err != nil {
		t.Fatalf("defaulted failover scenario invalid: %v", err)
	}
	d := base.withDefaults()
	if d.FailoverDelayS != 2.5 || d.FailoverLeaseMs != 1000 {
		t.Fatalf("defaults = delay %g lease %d, want 2.5 / 1000", d.FailoverDelayS, d.FailoverLeaseMs)
	}

	late := base
	late.FailoverDelayS = 10
	if err := late.Validate(); err == nil {
		t.Fatal("delay at duration end must be rejected")
	}
	both := base.withDefaults()
	both.ColdFollower = true
	if err := both.Validate(); err == nil {
		t.Fatal("failover + cold_follower must be rejected")
	}
	readonly := base.withDefaults()
	readonly.MixSetProfile, readonly.MixPurchase = 0, 0
	if err := readonly.Validate(); err == nil {
		t.Fatal("failover without a write mix must be rejected")
	}
	smoke := base.withDefaults().Smoke()
	if smoke.FailoverDelayS > smoke.DurationS/4 {
		t.Fatalf("smoke delay %g exceeds a quarter of %g", smoke.FailoverDelayS, smoke.DurationS)
	}
}
