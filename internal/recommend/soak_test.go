package recommend

// Concurrency and shard-semantics tests for the sharded engine. The soak
// test is meant to run under -race (CI does): M goroutines interleave
// SetProfile, RecordPurchase, and Recommend across every strategy, plus the
// Trending/TiedSales extensions, hunting torn reads; the frozen-community
// tests then pin down that concurrency never changes answers — the same
// community gives byte-identical top-N for any shard count, and the
// category lists are an exact substitute for a full community scan.

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"agentrec/internal/profile"
	"agentrec/internal/similarity"
	"agentrec/internal/workload"
)

// soakUniverse builds a community and its profiles once per test.
func soakUniverse(t *testing.T) (*workload.Universe, []*profile.Profile) {
	t.Helper()
	u, err := workload.Generate(workload.Config{
		Seed: 23, Users: 120, Products: 300, Categories: 8, RelevantPerUser: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := u.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	return u, profiles
}

// recsEquivalent compares two recommendation lists allowing last-ulp float
// noise: cosine and preference sums follow map iteration order, so scores
// can differ by ~1e-16 between computations and near-exact ties may swap.
// Positionally scores must agree within eps, and the id sequence must agree
// except inside runs of eps-tied scores, which may permute.
func recsEquivalent(got, want []Rec) bool {
	const eps = 1e-9
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i].Source != want[i].Source || math.Abs(got[i].Score-want[i].Score) > eps {
			return false
		}
	}
	i := 0
	for i < len(want) {
		j := i + 1
		for j < len(want) && math.Abs(want[j].Score-want[j-1].Score) <= eps {
			j++
		}
		gotIDs := make(map[string]bool, j-i)
		for _, r := range got[i:j] {
			gotIDs[r.ProductID] = true
		}
		for _, r := range want[i:j] {
			if !gotIDs[r.ProductID] {
				return false
			}
		}
		i = j
	}
	return true
}

func loadEngine(u *workload.Universe, profiles []*profile.Profile, opts ...Option) *Engine {
	e := NewEngine(u.Catalog, opts...)
	for _, p := range profiles {
		e.SetProfile(p)
	}
	for user, pids := range u.Purchases() {
		for _, pid := range pids {
			e.RecordPurchase(user, pid)
		}
	}
	return e
}

// TestConcurrentSoak interleaves writers and readers across every strategy.
// It asserts nothing about scores — the point is that under -race no
// goroutine observes a torn profile, purchase set, category list, or
// history shard, and no strategy returns an unexpected error mid-churn;
// once the writers stop, every category stream is the full scan's
// consumers with evidence there.
func TestConcurrentSoak(t *testing.T) {
	u, profiles := soakUniverse(t)
	e := NewEngine(u.Catalog, WithNeighbors(8), WithShards(8))
	// Seed half the community; the soak installs the rest while reading.
	for i := 0; i < len(profiles)/2; i++ {
		e.SetProfile(profiles[i])
	}
	purch := u.Purchases()

	const workers = 16
	const iters = 300
	strategies := []Strategy{StrategyAuto, StrategyCF, StrategyIF, StrategyHybrid, StrategyTopSeller}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 97))
			for i := 0; i < iters; i++ {
				usr := u.Users[rng.IntN(len(u.Users))]
				switch i % 8 {
				case 0:
					e.SetProfile(profiles[rng.IntN(len(profiles))])
				case 1:
					if pids := purch[usr.ID]; len(pids) > 0 {
						e.Observe(usr.ID, nil, []PurchasePair{PurchaseAt(usr.ID, pids[rng.IntN(len(pids))], start.Add(time.Duration(i)*time.Millisecond))})
					}
				case 2:
					e.Trending(start.Add(time.Second), time.Hour, 5)
				case 3:
					if pids := purch[usr.ID]; len(pids) > 0 {
						e.TiedSales(pids[0], 1, 5)
					}
				case 4:
					if _, err := e.Profile(usr.ID); err != nil && !errors.Is(err, ErrUnknownUser) {
						t.Error(err)
					}
				default:
					s := strategies[i%len(strategies)]
					if _, err := e.Recommend(s, usr.ID, "", 10); err != nil && !errors.Is(err, ErrUnknownUser) {
						t.Errorf("strategy %v: %v", s, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	st := e.Stats()
	// Half the community was seeded up front; the soak's random SetProfile
	// draws install more, but full coverage is RNG luck — don't demand it.
	if st.Users < len(profiles)/2 || st.Users > len(profiles) {
		t.Errorf("after soak Users = %d, want within [%d, %d]", st.Users, len(profiles)/2, len(profiles))
	}
	if st.Shards != 8 {
		t.Errorf("Shards = %d", st.Shards)
	}
	if err := checkCategoryStreams(e.Snapshot()); err != nil {
		t.Errorf("after soak: %v", err)
	}
}

// TestFrozenCommunityStableOrdering freezes a fully loaded community and
// has concurrent readers pull every strategy repeatedly: all of them must
// see exactly the ordering a serial reference pass computed.
func TestFrozenCommunityStableOrdering(t *testing.T) {
	u, profiles := soakUniverse(t)
	e := loadEngine(u, profiles, WithNeighbors(8))

	strategies := []Strategy{StrategyCF, StrategyIF, StrategyHybrid, StrategyTopSeller}
	ref := make(map[string][]Rec)
	for _, usr := range u.Users {
		for _, s := range strategies {
			recs, err := e.Recommend(s, usr.ID, "", 10)
			if err != nil {
				t.Fatal(err)
			}
			ref[usr.ID+"/"+s.String()] = recs
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 11))
			for i := 0; i < 150; i++ {
				usr := u.Users[rng.IntN(len(u.Users))]
				s := strategies[rng.IntN(len(strategies))]
				recs, err := e.Recommend(s, usr.ID, "", 10)
				if err != nil {
					t.Error(err)
					return
				}
				if want := ref[usr.ID+"/"+s.String()]; !recsEquivalent(recs, want) {
					t.Errorf("unstable ordering for %s/%s:\n got %+v\nwant %+v", usr.ID, s, recs, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestShardCountInvariance: sharding is an implementation detail — the same
// community must produce identical recommendations for any shard count.
func TestShardCountInvariance(t *testing.T) {
	u, profiles := soakUniverse(t)
	baseline := loadEngine(u, profiles, WithNeighbors(8), WithShards(1))
	strategies := []Strategy{StrategyAuto, StrategyCF, StrategyIF, StrategyHybrid, StrategyTopSeller}
	for _, shards := range []int{3, 16, 64} {
		e := loadEngine(u, profiles, WithNeighbors(8), WithShards(shards))
		for _, usr := range u.Users {
			for _, s := range strategies {
				want, err := baseline.Recommend(s, usr.ID, "", 10)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.Recommend(s, usr.ID, "", 10)
				if err != nil {
					t.Fatal(err)
				}
				if !recsEquivalent(got, want) {
					t.Fatalf("shards=%d user=%s strategy=%v diverged:\n got %+v\nwant %+v",
						shards, usr.ID, s, got, want)
				}
			}
		}
	}
}

// TestIndexedNeighborsMatchFullScan proves the category-list restriction is
// exact: for every consumer, the neighbours CF finds through the category
// lists equal those of a brute-force similarity.TopK over the whole
// materialized community.
func TestIndexedNeighborsMatchFullScan(t *testing.T) {
	u, profiles := soakUniverse(t)
	e := loadEngine(u, profiles, WithNeighbors(8))
	all := make([]*profile.Profile, len(profiles))
	copy(all, profiles)

	snap := e.Snapshot()
	for _, target := range profiles {
		st := snap.profiled(target.UserID)
		if st == nil {
			t.Fatalf("missing %s", target.UserID)
		}
		cat := neighborCategory(st.prof, "")
		got, err := e.neighbors(snap, st, cat, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := similarity.TopK(target, all, cat, e.tolerance, e.k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("user %s: %d neighbours via index, %d via full scan", target.UserID, len(got), len(want))
		}
		// Scores may differ in the last ulp: the index sums preference
		// values and cosines over the stored clone's maps, the reference
		// over the originals, and float summation order follows map
		// iteration order. The neighbour set and ranking must still agree.
		const eps = 1e-9
		for i := range want {
			if got[i].UserID != want[i].UserID || math.Abs(got[i].Score-want[i].Score) > eps {
				t.Fatalf("user %s neighbour %d: got %+v want %+v", target.UserID, i, got[i], want[i])
			}
		}
	}
}

// TestSnapshotIsolation: a snapshot must not see writes that land after it
// was taken.
func TestSnapshotIsolation(t *testing.T) {
	u, profiles := soakUniverse(t)
	e := loadEngine(u, profiles, WithNeighbors(8))
	alice := u.Users[0].ID

	snap := e.Snapshot()
	before := len(snap.Purchases(alice))
	usersBefore := snap.Len()

	e.RecordPurchase(alice, "late-product")
	fresh := profile.NewProfile("late-user")
	if err := fresh.Observe(profile.Evidence{
		Category: "cat00", Terms: map[string]float64{"t": 1}, Behaviour: profile.BehaviourBuy,
	}); err != nil {
		t.Fatal(err)
	}
	e.SetProfile(fresh)

	if got := len(snap.Purchases(alice)); got != before {
		t.Errorf("snapshot saw a later purchase: %d -> %d", before, got)
	}
	if snap.Profile("late-user") != nil || snap.Len() != usersBefore {
		t.Error("snapshot saw a later profile install")
	}
	// A fresh snapshot does see both.
	snap2 := e.Snapshot()
	if !snap2.Purchases(alice)["late-product"] || snap2.Profile("late-user") == nil {
		t.Error("fresh snapshot missed committed writes")
	}
}

// TestIndexTransitionRemovesOldPostings: replacing a consumer's profile
// must drop them from the category streams the new profile no longer
// covers — across racing SetProfile calls for the same consumer, the shard
// lock totally orders the installs, so the streams end at the final state.
func TestIndexTransitionRemovesOldPostings(t *testing.T) {
	mkProf := func(cat string) *profile.Profile {
		p := profile.NewProfile("u")
		if err := p.Observe(profile.Evidence{
			Category: cat, Terms: map[string]float64{"t": 1}, Behaviour: profile.BehaviourBuy,
		}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	e := NewEngine(nil, WithShards(4))
	e.SetProfile(mkProf("laptop"))
	e.SetProfile(mkProf("camera"))

	collect := func(cat string) []string {
		var ids []string
		for c := range e.Snapshot().inCategory(cat) {
			ids = append(ids, c.UserID)
		}
		return ids
	}
	if got := collect("laptop"); len(got) != 0 {
		t.Errorf("replaced profile still streamed in laptop: %v", got)
	}
	if got := collect("camera"); len(got) != 1 || got[0] != "u" {
		t.Errorf("camera streams %v, want [u]", got)
	}

	// Racing replacements for one consumer must converge: after the dust
	// settles, exactly one category streams the consumer.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				e.SetProfile(mkProf(fmt.Sprintf("cat%d", (w+i)%3)))
			}
		}(w)
	}
	wg.Wait()
	e.SetProfile(mkProf("final"))
	total := 0
	for _, cat := range []string{"cat0", "cat1", "cat2", "laptop", "camera"} {
		total += len(collect(cat))
	}
	if total != 0 {
		t.Errorf("stale categories survive racing replacements: %d", total)
	}
	if got := collect("final"); len(got) != 1 {
		t.Errorf("final streams %v, want exactly [u]", got)
	}
}

// TestIndexCandidatesReconcileWithSnapshot: a snapshot's category stream is
// the snapshot's, however the community moves on after it was taken.
func TestIndexCandidatesReconcileWithSnapshot(t *testing.T) {
	u, profiles := soakUniverse(t)
	e := loadEngine(u, profiles, WithNeighbors(8))
	snap := e.Snapshot()

	// A consumer installed after the snapshot must not be enumerated.
	late := profile.NewProfile("zz-late")
	if err := late.Observe(profile.Evidence{
		Category: "cat00", Terms: map[string]float64{"t": 1}, Behaviour: profile.BehaviourBuy,
	}); err != nil {
		t.Fatal(err)
	}
	e.SetProfile(late)
	// A consumer who leaves the category after the snapshot is still
	// streamed from it, with the summary the snapshot holds.
	var moved string
	for _, p := range profiles {
		if p.PreferenceValue("cat00") > 0 {
			moved = p.UserID
			break
		}
	}
	away := profile.NewProfile(moved)
	if err := away.Observe(profile.Evidence{
		Category: "elsewhere", Terms: map[string]float64{"t": 1}, Behaviour: profile.BehaviourBuy,
	}); err != nil {
		t.Fatal(err)
	}
	e.SetProfile(away)
	stayed := false
	for c := range snap.inCategory("cat00") {
		if c.UserID == "zz-late" {
			t.Fatal("post-snapshot consumer enumerated from old snapshot")
		}
		if c.UserID == moved {
			stayed = c.Vec == snap.profiled(moved).sum.Vec
		}
	}
	if !stayed {
		t.Fatalf("old snapshot lost %s, who left the category after it was taken", moved)
	}
	// A fresh snapshot sees both writes.
	found := false
	for c := range e.Snapshot().inCategory("cat00") {
		if c.UserID == "zz-late" {
			found = true
		}
		if c.UserID == moved {
			t.Fatalf("fresh snapshot still streams %s in a category they left", moved)
		}
	}
	if !found {
		t.Fatal("fresh snapshot missed the new consumer")
	}
}

// TestWithShardsOption pins the option's validation behaviour.
func TestWithShardsOption(t *testing.T) {
	e := NewEngine(nil, WithShards(5))
	if len(e.shards) != 5 {
		t.Fatalf("shards = %d, want 5", len(e.shards))
	}
	e = NewEngine(nil, WithShards(-2))
	if len(e.shards) != DefaultShards {
		t.Fatalf("invalid shard count not defaulted: %d", len(e.shards))
	}
	if fmt.Sprintf("%T", e.Snapshot()) != "*recommend.Snapshot" {
		t.Fatal("snapshot type")
	}
}
