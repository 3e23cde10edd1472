package recommend

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"agentrec/internal/catalog"
	"agentrec/internal/profile"
	"agentrec/internal/similarity"
)

// viewProfile is a small profile whose content names its version, so two
// installs for one consumer never compare equal.
func viewProfile(t testing.TB, userID string, version int) *profile.Profile {
	t.Helper()
	p := profile.NewProfile(userID)
	err := p.Observe(profile.Evidence{
		Category:  fmt.Sprintf("cat%d", version%3),
		Terms:     map[string]float64{"t": 1, fmt.Sprintf("v%d", version): 1},
		Behaviour: profile.BehaviourBuy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// community is the test's own record of what was written: what a view built
// from scratch at this instant would hold.
type community struct {
	profiles  map[string]*profile.Profile
	purchases map[string]map[string]bool
}

func (c community) clone() community {
	cp := community{
		profiles:  make(map[string]*profile.Profile, len(c.profiles)),
		purchases: make(map[string]map[string]bool, len(c.purchases)),
	}
	for id, p := range c.profiles {
		cp.profiles[id] = p // never written after install
	}
	for id, set := range c.purchases {
		cp.purchases[id] = make(map[string]bool, len(set))
		for pid := range set {
			cp.purchases[id][pid] = true
		}
	}
	return cp
}

// snapshotReads checks everything snap can be asked against want, and
// reports the first difference.
func snapshotReads(snap *Snapshot, want community, ids []string) error {
	users := make([]string, 0, len(want.profiles))
	for id := range want.profiles {
		users = append(users, id)
	}
	sort.Strings(users)
	if got := snap.Users(); !slices.Equal(got, users) {
		return fmt.Errorf("Users() = %v, want %v", got, users)
	}
	if got := snap.Len(); got != len(users) {
		return fmt.Errorf("Len() = %d, want %d", got, len(users))
	}
	for _, id := range ids {
		got, p := snap.Profile(id), want.profiles[id]
		if (got == nil) != (p == nil) {
			return fmt.Errorf("Profile(%s) = %v, want %v", id, got, p)
		}
		if p != nil && !reflect.DeepEqual(got.Summary().Vec, p.Summary().Vec) {
			return fmt.Errorf("Profile(%s) holds %v, want %v", id, *got.Summary().Vec, *p.Summary().Vec)
		}
		bought := snap.Purchases(id)
		if len(bought) != len(want.purchases[id]) {
			return fmt.Errorf("Purchases(%s) = %v, want %v", id, bought, want.purchases[id])
		}
		for pid := range want.purchases[id] {
			if !bought[pid] {
				return fmt.Errorf("Purchases(%s) = %v, want %v", id, bought, want.purchases[id])
			}
		}
	}
	// The full scan walks each shard in id order and hands out exactly the
	// summaries the snapshot's look-ups return.
	byShard := make([][]string, len(snap.views))
	for _, id := range users {
		i := shardOf(id, len(snap.views))
		byShard[i] = append(byShard[i], id)
	}
	scan := slices.Collect(snap.candidates(""))
	for _, c := range scan {
		if st := snap.profiled(c.UserID); st == nil || st.sum.Vec != c.Vec {
			return fmt.Errorf("candidates() yields a summary of %s the snapshot does not hold", c.UserID)
		}
	}
	got := make([]string, len(scan))
	for i, c := range scan {
		got[i] = c.UserID
	}
	if order := slices.Concat(byShard...); !slices.Equal(got, order) {
		return fmt.Errorf("candidates() order = %v, want %v", got, order)
	}
	// Each view's list for a category is the shard's consumers with
	// evidence there, in id order, each with the summary and preference
	// value the snapshot's look-ups hold.
	for _, cat := range viewCategories {
		for i, v := range snap.views {
			var inCat []string
			for _, id := range byShard[i] {
				if want.profiles[id].PreferenceValue(cat) > 0 {
					inCat = append(inCat, id)
				}
			}
			list := v.inCategory(cat)
			got := make([]string, len(list))
			for j, c := range list {
				got[j] = c.UserID
				if st := snap.profiled(c.UserID); st == nil || st.sum.Vec != c.Vec || st.sum.Prefs[cat] != c.Ty {
					return fmt.Errorf("shard %d's %s list holds a candidate %s the snapshot does not", i, cat, c.UserID)
				}
			}
			if !slices.Equal(got, inCat) {
				return fmt.Errorf("shard %d's %s list = %v, want %v", i, cat, got, inCat)
			}
		}
	}
	return nil
}

// viewCategories are the categories viewProfile files evidence under, and
// one nobody has evidence in.
var viewCategories = []string{"cat0", "cat1", "cat2", "cat9"}

// checkCategoryStreams reports the first category whose stream in snap is
// not the full scan's consumers with evidence there, in the scan's order,
// each with the scan's summary and its preference value in the category.
func checkCategoryStreams(snap *Snapshot) error {
	for _, cat := range snapCategories(snap) {
		var want []similarity.Candidate
		for c := range snap.candidates(cat) {
			if c.Ty > 0 {
				want = append(want, c)
			}
		}
		got := slices.Collect(snap.inCategory(cat))
		if !slices.EqualFunc(got, want, func(a, b similarity.Candidate) bool {
			return a.UserID == b.UserID && a.Ty == b.Ty && a.Vec == b.Vec
		}) {
			return fmt.Errorf("category %s streams %d candidates, want the %d with evidence there in scan order", cat, len(got), len(want))
		}
	}
	return nil
}

// snapCategories returns every category some consumer of snap has evidence
// in, sorted.
func snapCategories(snap *Snapshot) []string {
	var cats []string
	for c := range snap.candidates("") {
		for cat := range snap.profiled(c.UserID).sum.Prefs {
			cats = append(cats, cat)
		}
	}
	slices.Sort(cats)
	return slices.Compact(cats)
}

// categoryMembers returns, for each of cats whose stream in snap yields
// anyone, the ids it yields, sorted: what a search in the category walks,
// whatever the shard count.
func categoryMembers(snap *Snapshot, cats []string) map[string][]string {
	out := make(map[string][]string)
	for _, cat := range cats {
		for c := range snap.inCategory(cat) {
			out[cat] = append(out[cat], c.UserID)
		}
		slices.Sort(out[cat])
	}
	return out
}

// TestPatchedViewEqualsRebuiltView: whatever mix of writes lands between two
// reads, a view brought up to date from the previous one reads exactly like
// one built from scratch — its category lists included — and a snapshot
// taken earlier keeps reading what it read when it was taken. Readers run
// beside the writer throughout, so under -race it also covers the view and
// category-list builders against the write path.
func TestPatchedViewEqualsRebuiltView(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		opts   func(t *testing.T) []Option
	}{
		{"memory", 2, func(*testing.T) []Option { return nil }},
		{"persisted", 4, func(t *testing.T) []Option {
			return []Option{WithPersistence(t.TempDir())}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := Open(catalog.New(), append(tc.opts(t), WithShards(tc.shards))...)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			ids := make([]string, 60)
			for i := range ids {
				ids[i] = fmt.Sprintf("u%02d", i)
			}
			stop := make(chan struct{})
			var readers sync.WaitGroup
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						// Whatever instant this is, one snapshot agrees with itself.
						snap := e.Snapshot()
						users := snap.Users()
						n := 0
						for range snap.candidates("") {
							n++
						}
						if snap.Len() != len(users) || n != len(users) {
							t.Errorf("reader: %d Users(), Len() = %d, candidates() yields %d", len(users), snap.Len(), n)
							return
						}
						for _, id := range users {
							if snap.Profile(id) == nil {
								t.Errorf("reader: Users() lists %s, Profile has none", id)
								return
							}
						}
						// Readers build the lists, a base's shared by the
						// views patched from it, while the writer patches
						// and folds views.
						for _, cat := range viewCategories {
							for c := range snap.inCategory(cat) {
								if st := snap.profiled(c.UserID); st == nil || st.sum.Prefs[cat] != c.Ty || c.Ty <= 0 {
									t.Errorf("reader: %s streams %s, whom the snapshot does not hold with evidence there", cat, c.UserID)
									return
								}
							}
						}
					}
				}()
			}

			rng := rand.New(rand.NewPCG(23, uint64(tc.shards)))
			probe := append([]string{"buyer-only", "nobody"}, ids...)
			model := community{profiles: map[string]*profile.Profile{}, purchases: map[string]map[string]bool{}}
			install := func(p *profile.Profile) { model.profiles[p.UserID] = p }
			type held struct {
				snap *Snapshot
				want community
				step int
			}
			var kept []held
			version := 0
			for step := 0; step < 1500; step++ {
				id := ids[rng.IntN(len(ids))]
				switch op := rng.IntN(20); {
				case op < 7:
					version++
					p := viewProfile(t, id, version)
					if err := e.SetProfile(p); err != nil {
						t.Fatal(err)
					}
					install(p)
				case op < 9:
					// A batch: a few consumers, or enough of them that some
					// shard's log overflows and its view is built afresh.
					n := 2 + rng.IntN(6)
					if op == 8 {
						n = 3 * viewLogCap
					}
					batch := make([]*profile.Profile, n)
					for i := range batch {
						version++
						batch[i] = viewProfile(t, ids[rng.IntN(len(ids))], version)
					}
					if err := e.SetProfiles(batch); err != nil {
						t.Fatal(err)
					}
					for _, p := range batch {
						install(p)
					}
				case op < 18:
					// Some buyers have no profile yet; this one never gets one.
					if op == 17 {
						id = "buyer-only"
					}
					pid := fmt.Sprintf("p%d", rng.IntN(12))
					if err := e.RecordPurchase(id, pid); err != nil {
						t.Fatal(err)
					}
					if model.purchases[id] == nil {
						model.purchases[id] = map[string]bool{}
					}
					model.purchases[id][pid] = true
				case op == 18:
					// A wholesale replace, as a follower's catch-up does it:
					// about half the shard's consumers are gone after it.
					shard := e.ShardOf(id)
					var pg SnapshotPage
					sells := map[string]int64{}
					for _, uid := range slices.Sorted(maps.Keys(model.profiles)) {
						if e.ShardOf(uid) != shard {
							continue
						}
						if rng.IntN(2) == 0 {
							delete(model.profiles, uid)
							continue
						}
						enc, err := model.profiles[uid].Marshal()
						if err != nil {
							t.Fatal(err)
						}
						pg.Profiles = append(pg.Profiles, enc)
					}
					for _, uid := range slices.Sorted(maps.Keys(model.purchases)) {
						if e.ShardOf(uid) != shard {
							continue
						}
						if rng.IntN(2) == 0 {
							delete(model.purchases, uid)
							continue
						}
						for _, pid := range slices.Sorted(maps.Keys(model.purchases[uid])) {
							pg.Purchases = append(pg.Purchases, PurchasePair{UserID: uid, ProductID: pid})
							sells[pid]++
						}
					}
					for _, pid := range slices.Sorted(maps.Keys(sells)) {
						pg.Sells = append(pg.Sells, SellCount{ProductID: pid, Total: sells[pid]})
					}
					if err := e.applyShardSnapshot(shard, imageOf(t, e, shard, pg), (*OwnershipTable).admitOwner); err != nil {
						t.Fatal(err)
					}
				default:
					// No write: the read below finds some shards clean.
				}
				if rng.IntN(3) != 0 {
					continue
				}
				snap, want := e.Snapshot(), model.clone()
				if err := snapshotReads(snap, want, probe); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if len(kept) < 40 || rng.IntN(10) == 0 {
					kept = append(kept, held{snap, want, step})
				}
				old := kept[rng.IntN(len(kept))]
				if err := snapshotReads(old.snap, old.want, probe); err != nil {
					t.Fatalf("step %d: snapshot of step %d moved: %v", step, old.step, err)
				}
			}
			close(stop)
			readers.Wait()
			for _, old := range kept {
				if err := snapshotReads(old.snap, old.want, probe); err != nil {
					t.Fatalf("at the end: snapshot of step %d moved: %v", old.step, err)
				}
			}
			if err := e.Err(); err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			if st.ViewPatches == 0 || st.ViewRebuilds == 0 {
				t.Fatalf("the run took only one path to a view: %d patched, %d rebuilt", st.ViewPatches, st.ViewRebuilds)
			}
		})
	}
}

// oneShard is an engine with a single n-consumer shard, every consumer with
// a profile and three purchases, and its first view built.
func oneShard(t testing.TB, n int) (*Engine, []string) {
	t.Helper()
	e := NewEngine(catalog.New(), WithShards(1))
	ids := make([]string, n)
	profs := make([]*profile.Profile, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("u%05d", i)
		profs[i] = viewProfile(t, ids[i], i)
	}
	if err := e.SetProfiles(profs); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		for j := 0; j < 3; j++ {
			if err := e.RecordPurchase(id, fmt.Sprintf("p%d", (i+j)%50)); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.Snapshot()
	return e, ids
}

// superseded counts the records v keeps reachable though a later write
// replaced them: the price of sharing a base between views.
func superseded(v *shardView) int {
	n := 0
	for id, c := range v.over {
		if old := v.base.consumers[id]; old != nil && old != c {
			n++
		}
	}
	return n
}

// TestSnapshotAfterWriteIsConstantWork: the first read after a write costs
// the consumers written, not the shard. Copying the shard — on 2 000
// consumers, 2 000 purchase sets and two maps, a little over 2 000
// allocations — for every one of these is what views replaced. A purchase
// and the read after it measure 7 allocations, and the ceiling is that
// + 2 %.
func TestSnapshotAfterWriteIsConstantWork(t *testing.T) {
	e, ids := oneShard(t, 2000)
	before := e.Stats()
	const runs = 200
	allocs := testing.AllocsPerRun(runs, func() {
		if err := e.RecordPurchase(ids[7], "p7"); err != nil {
			t.Fatal(err)
		}
		e.Snapshot()
	})
	if allocs > 8 {
		t.Errorf("a purchase and the Snapshot() after it make %.0f allocations on a 2 000-consumer shard, want a small constant", allocs)
	}
	after := e.Stats()
	if got := after.ViewPatches - before.ViewPatches; got != runs+1 { // AllocsPerRun warms up once
		t.Errorf("ViewPatches moved by %d over %d reads after a write", got, runs+1)
	}
	if after.ViewRebuilds != before.ViewRebuilds {
		t.Errorf("ViewRebuilds moved by %d: a read after one write built a base", after.ViewRebuilds-before.ViewRebuilds)
	}
}

// TestViewRetentionIsBounded: however often consumers are overwritten, a
// shard's view keeps at most viewOverlayCap superseded records reachable,
// and folding an overlay into a new base shares every record it did not
// touch.
func TestViewRetentionIsBounded(t *testing.T) {
	e, ids := oneShard(t, 200)
	sh := e.shards[0]
	before := e.Stats()
	for i := 0; i < 10000; i++ {
		if err := e.SetProfile(viewProfile(t, ids[3], i)); err != nil {
			t.Fatal(err)
		}
		e.Snapshot()
	}
	st := e.Stats()
	if st.ViewPatches-before.ViewPatches != 10000 || st.ViewRebuilds != before.ViewRebuilds {
		t.Fatalf("10 000 overwrites of one consumer: %d patched, %d rebuilt, want all patched",
			st.ViewPatches-before.ViewPatches, st.ViewRebuilds-before.ViewRebuilds)
	}
	if n := superseded(sh.view.Load()); n != 1 {
		t.Fatalf("view retains %d superseded records after overwriting one consumer, want 1", n)
	}

	quiet := ids[len(ids)-1]
	record := e.Snapshot().viewFor(quiet).consumer(quiet)
	for i := 0; i < 10000; i++ {
		if err := e.SetProfile(viewProfile(t, ids[i%40], i)); err != nil {
			t.Fatal(err)
		}
		e.Snapshot()
		if n := superseded(sh.view.Load()); n > viewOverlayCap {
			t.Fatalf("write %d: view retains %d superseded records, cap %d", i, n, viewOverlayCap)
		}
	}
	if folds := e.Stats().ViewRebuilds - st.ViewRebuilds; folds < 10000/40 {
		t.Fatalf("overlay folded %d times over 10 000 writes round 40 consumers", folds)
	}
	if e.Snapshot().viewFor(quiet).consumer(quiet) != record {
		t.Error("folding the overlay copied the record of a consumer nobody wrote")
	}
}

// TestScanWalksConsumersInOrder: the full-community candidate stream
// yields every consumer exactly once, each shard's by UserID, and a view
// taken after a write has the new consumer in place.
func TestScanWalksConsumersInOrder(t *testing.T) {
	u, profiles := soakUniverse(t)
	e := loadEngine(u, profiles)
	check := func(want int) {
		t.Helper()
		snap := e.Snapshot()
		seen := make(map[string]bool)
		last, lastShard := "", -1
		for c := range snap.candidates("") {
			if seen[c.UserID] {
				t.Fatalf("%s streamed twice", c.UserID)
			}
			seen[c.UserID] = true
			if sh := shardOf(c.UserID, len(snap.views)); sh != lastShard {
				last, lastShard = "", sh
			}
			if strings.Compare(last, c.UserID) >= 0 {
				t.Fatalf("shard %d: %s streamed after %s", lastShard, c.UserID, last)
			}
			last = c.UserID
		}
		if len(seen) != want {
			t.Fatalf("streamed %d consumers, want %d", len(seen), want)
		}
	}
	check(len(profiles))
	late := profiles[0].Clone()
	late.UserID = "a-late-arrival"
	if err := e.SetProfile(late); err != nil {
		t.Fatal(err)
	}
	check(len(profiles) + 1)
}
