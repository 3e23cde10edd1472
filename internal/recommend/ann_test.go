package recommend

// Tests for the LSH approximate neighbour search: recall against the exact
// ranking, Fig 4.5 gate equivalence on the shortlist path, byte-identical
// fallback when ANN is off or the category is small, and a -race soak that
// rehashes live buckets under concurrent readers. The recall tests use
// planted-cluster communities large enough that the shortlist actually
// engages (annMinShortlist) and bucket depth forces a rehash past
// annMinBits.

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"agentrec/internal/catalog"
	"agentrec/internal/profile"
	"agentrec/internal/similarity"
	"agentrec/internal/workload"
)

// annCommunity plants nclusters taste clusters in one category: consumers
// perturb a shared cluster center, so "most similar" has ground truth and
// top-10 neighbours are genuinely close. scale multiplies one half of the
// community's evidence weights, giving the discard gate something to cut.
func annCommunity(t testing.TB, n, nclusters int, seed uint64, scaleHalf bool) []*profile.Profile {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0xa11))
	const centerTerms = 10
	centers := make([][]string, nclusters)
	for c := range centers {
		centers[c] = make([]string, centerTerms)
		for i := range centers[c] {
			centers[c][i] = fmt.Sprintf("t%03d", rng.IntN(600))
		}
	}
	profs := make([]*profile.Profile, n)
	for u := range profs {
		c := u % nclusters
		terms := make(map[string]float64, centerTerms+2)
		for _, tm := range centers[c] {
			terms[tm] = 0.7 + 0.6*rng.Float64()
		}
		terms[fmt.Sprintf("t%03d", rng.IntN(600))] += 0.4
		scale := 1.0
		if scaleHalf && u%2 == 1 {
			scale = 8 // activity outlier: gated out at tolerance 0.5
		}
		for tm := range terms {
			terms[tm] *= scale
		}
		p := profile.NewProfile(fmt.Sprintf("u%05d", u))
		if err := p.Observe(profile.Evidence{
			Category: "hot", Terms: terms, Behaviour: profile.BehaviourBuy,
		}); err != nil {
			t.Fatal(err)
		}
		profs[u] = p
	}
	return profs
}

func annEngine(t testing.TB, profs []*profile.Profile, opts ...Option) *Engine {
	t.Helper()
	e := NewEngine(catalog.New(), opts...)
	if err := e.SetProfiles(profs); err != nil {
		t.Fatal(err)
	}
	return e
}

// neighborIDs projects a neighbour list to its id sequence.
func neighborIDs(nbs []similarity.Neighbor) []string {
	ids := make([]string, len(nbs))
	for i, nb := range nbs {
		ids[i] = nb.UserID
	}
	return ids
}

// TestLSHRecallAtTen: mean recall@10 of the LSH path against the exact
// ranking on the same engine must be at least 0.95. The community is big
// enough to force adaptive rehashes well past annMinBits, so recall is
// measured against real bucket depth, not the easy small-table case.
func TestLSHRecallAtTen(t *testing.T) {
	profs := annCommunity(t, 6000, 48, 17, false)
	e := annEngine(t, profs, WithNeighborSearch(SearchLSH))

	// The shortlist must actually engage, or recall is trivially 1.
	snap := e.Snapshot()
	st := snap.stored(profs[0].UserID)
	q := e.index.shortlist("hot", st.sum)
	if q == nil {
		t.Fatal("LSH shortlist did not engage on a 6000-consumer category")
	}
	shortlisted := 0
	for range q.seq() {
		shortlisted++
	}
	q.release()
	if shortlisted == 0 || shortlisted >= len(profs) {
		t.Fatalf("shortlist covers %d of %d candidates; want a strict, non-empty subset", shortlisted, len(profs))
	}

	rng := rand.New(rand.NewPCG(3, 3))
	var recall float64
	queries := 64
	for i := 0; i < queries; i++ {
		u := profs[rng.IntN(len(profs))].UserID
		exact, err := e.Neighbors(u, "hot", SearchExact)
		if err != nil {
			t.Fatal(err)
		}
		lsh, err := e.Neighbors(u, "hot", SearchLSH)
		if err != nil {
			t.Fatal(err)
		}
		if len(exact) == 0 {
			t.Fatalf("no exact neighbours for %s", u)
		}
		got := make(map[string]bool, len(lsh))
		for _, nb := range lsh {
			got[nb.UserID] = true
		}
		hit := 0
		for _, nb := range exact {
			if got[nb.UserID] {
				hit++
			}
		}
		recall += float64(hit) / float64(len(exact))
	}
	recall /= float64(queries)
	if recall < 0.95 {
		t.Fatalf("LSH recall@10 = %.3f, want >= 0.95 (shortlist %d of %d)", recall, shortlisted, len(profs))
	}
}

// TestANNGateEquivalence: the Fig 4.5 discard gate must behave identically
// on the shortlist path — an activity outlier the gate discards on the
// exact path can never surface through an LSH bucket, and for a community
// with planted outliers the two paths return the same ranked neighbours.
func TestANNGateEquivalence(t *testing.T) {
	profs := annCommunity(t, 3000, 24, 29, true)
	e := annEngine(t, profs, WithNeighborSearch(SearchLSH), WithTolerance(0.5))

	snap := e.Snapshot()
	rng := rand.New(rand.NewPCG(11, 11))
	for i := 0; i < 32; i++ {
		u := profs[rng.IntN(len(profs))].UserID
		exact, err := e.Neighbors(u, "hot", SearchExact)
		if err != nil {
			t.Fatal(err)
		}
		lsh, err := e.Neighbors(u, "hot", SearchLSH)
		if err != nil {
			t.Fatal(err)
		}
		tx := snap.stored(u).sum.Prefs["hot"]
		for _, nb := range lsh {
			ty := snap.stored(nb.UserID).sum.Prefs["hot"]
			if similarity.GateDiscards(tx, ty, 0.5) {
				t.Fatalf("LSH path returned gated pair %s/%s (Tx=%.2f Ty=%.2f tol=0.5)", u, nb.UserID, tx, ty)
			}
		}
		if len(exact) != len(lsh) {
			t.Fatalf("user %s: exact returned %d neighbours, LSH %d", u, len(exact), len(lsh))
		}
		for j := range exact {
			if exact[j].UserID != lsh[j].UserID || math.Abs(exact[j].Score-lsh[j].Score) > 1e-9 {
				t.Fatalf("user %s rank %d: exact %+v vs LSH %+v", u, j, exact[j], lsh[j])
			}
		}
	}
}

// TestANNOffMatchesExact: with ANN off (the default) nothing changes, and
// even on an LSH engine a category below the shortlist floor falls back to
// the exact scan — both engines answer recommendation queries identically
// on the soak universe, whose categories are all far below annMinShortlist.
func TestANNOffMatchesExact(t *testing.T) {
	u, profiles := soakUniverse(t)
	exact := loadEngine(u, profiles)
	lsh := loadEngine(u, profiles, WithNeighborSearch(SearchLSH))
	for _, strategy := range []Strategy{StrategyCF, StrategyHybrid} {
		for _, usr := range u.Users {
			r0, err0 := exact.Recommend(strategy, usr.ID, "", 8)
			r1, err1 := lsh.Recommend(strategy, usr.ID, "", 8)
			if err0 != nil || err1 != nil {
				t.Fatalf("recommend errors: %v / %v", err0, err1)
			}
			if !recsEquivalent(r1, r0) {
				t.Fatalf("%v for %s diverged below the shortlist floor:\nexact: %v\nlsh:   %v", strategy, usr.ID, r0, r1)
			}
		}
	}
}

// TestANNRehashRaceSoak drives concurrent SetProfile traffic through the
// adaptive rehash threshold (annLoad<<annMinBits postings in one category)
// while readers run LSH neighbour searches and recommendations. Run under
// -race (CI does): the point is that rebucketing a live category never
// races a shortlist probe.
func TestANNRehashRaceSoak(t *testing.T) {
	const total = 3000 // crosses the 2048-posting rehash threshold mid-soak
	profs := annCommunity(t, total, 16, 43, false)
	e := annEngine(t, profs[:256], WithNeighborSearch(SearchLSH), WithShards(8))

	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewPCG(uint64(r), 99))
			for {
				select {
				case <-stop:
					return
				default:
				}
				u := profs[rng.IntN(256)].UserID
				if _, err := e.Neighbors(u, "hot", SearchLSH); err != nil {
					t.Errorf("neighbors: %v", err)
					return
				}
				if _, err := e.Recommend(StrategyCF, u, "hot", 5); err != nil {
					t.Errorf("recommend: %v", err)
					return
				}
			}
		}(r)
	}
	const nwriters = 8
	for w := 0; w < nwriters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 256 + w; i < total; i += nwriters {
				if err := e.SetProfile(profs[i]); err != nil {
					t.Errorf("set profile: %v", err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	// Readers get a beat against the final, fully rehashed table.
	time.Sleep(20 * time.Millisecond)
	close(stop)
	readers.Wait()

	// The category must have rehashed past the minimum depth and still
	// answer exactly: every id the exact path ranks is locatable.
	exact, err := e.Neighbors(profs[0].UserID, "hot", SearchExact)
	if err != nil || len(exact) == 0 {
		t.Fatalf("post-soak exact search: %d neighbours, err %v", len(exact), err)
	}
}

// BenchmarkReplicationCatchUpANN is BenchmarkReplicationCatchUp with LSH
// engines on both ends: the follower rebuilds hash tables from replicated
// summaries during snapshot catch-up, so the delta against the exact
// benchmark is the measured price of ANN index rebuild.
func BenchmarkReplicationCatchUpANN(b *testing.B) {
	u, err := workload.Generate(workload.Config{
		Seed: 23, Users: 500, Products: 400, Categories: 8, RelevantPerUser: 12,
	})
	if err != nil {
		b.Fatal(err)
	}
	profiles := make([]*profile.Profile, len(u.Users))
	for i, usr := range u.Users {
		if profiles[i], err = u.BuildProfile(usr); err != nil {
			b.Fatal(err)
		}
	}
	owner, err := Open(u.Catalog, WithJournalFeed(0), WithShards(8), WithNeighborSearch(SearchLSH))
	if err != nil {
		b.Fatal(err)
	}
	defer owner.Close()
	if err := owner.SetProfiles(profiles); err != nil {
		b.Fatal(err)
	}
	for user, pids := range u.Purchases() {
		for _, pid := range pids {
			if err := owner.RecordPurchase(user, pid); err != nil {
				b.Fatal(err)
			}
		}
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		follower, err := Open(u.Catalog, WithJournalFeed(0), WithShards(8), WithNeighborSearch(SearchLSH))
		if err != nil {
			b.Fatal(err)
		}
		r, err := NewReplicator(follower, 1, []Peer{LocalPeer{Engine: owner}, nil})
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Sync(ctx); err != nil {
			b.Fatal(err)
		}
		r.Close()
		follower.Close()
	}
}

// BenchmarkANNNeighbors compares one exact neighbour search against one
// LSH search on a 20k-consumer category — the CI smoke proxy for the full
// BENCH_recommend.json sweep.
func BenchmarkANNNeighbors(b *testing.B) {
	profs := annCommunity(b, 20000, 64, 7, false)
	e := annEngine(b, profs, WithNeighborSearch(SearchLSH))
	targets := make([]string, 16)
	rng := rand.New(rand.NewPCG(7, 7))
	for i := range targets {
		targets[i] = profs[rng.IntN(len(profs))].UserID
	}
	for _, mode := range []NeighborSearch{SearchExact, SearchLSH} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Neighbors(targets[i%len(targets)], "hot", mode); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
