package recommend

// Durability tests: warm restart recovers the exact community, a crash
// mid-batch (torn WAL tail) recovers the intact prefix, and the whole
// persistence path survives a -race soak.

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"agentrec/internal/kvstore"
	"agentrec/internal/profile"
	"agentrec/internal/workload"
)

// loadEngineErr is loadEngine for persistent engines: construction and
// writes report errors instead of panicking.
func loadEngineErr(t *testing.T, u *workload.Universe, profiles []*profile.Profile, opts ...Option) *Engine {
	t.Helper()
	e, err := Open(u.Catalog, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range profiles {
		if err := e.SetProfile(p); err != nil {
			t.Fatal(err)
		}
	}
	for user, pids := range u.Purchases() {
		for _, pid := range pids {
			if err := e.RecordPurchase(user, pid); err != nil {
				t.Fatal(err)
			}
		}
	}
	return e
}

// communityEqual asserts b holds exactly a's community: users, profiles,
// purchase sets, category streams, per-strategy recommendations, and the
// §5.2 reads over the purchase sets (purchaseReadsEqual).
func communityEqual(t *testing.T, a, b *Engine) {
	t.Helper()
	usersA, usersB := a.Users(), b.Users()
	if !reflect.DeepEqual(usersA, usersB) {
		t.Fatalf("user sets differ: %d vs %d users", len(usersA), len(usersB))
	}
	if stA, stB := a.Stats(), b.Stats(); stA.Users != stB.Users {
		t.Fatalf("stats differ: %+v vs %+v", stA, stB)
	}
	snapA, snapB := a.Snapshot(), b.Snapshot()
	cats := append(snapCategories(snapA), snapCategories(snapB)...)
	if ma, mb := categoryMembers(snapA, cats), categoryMembers(snapB, cats); !reflect.DeepEqual(ma, mb) {
		t.Fatalf("category streams differ: %d vs %d categories", len(ma), len(mb))
	}
	for _, user := range usersA {
		pa, pb := snapA.Profile(user), snapB.Profile(user)
		if pa == nil || pb == nil {
			t.Fatalf("profile for %s missing (a=%v b=%v)", user, pa != nil, pb != nil)
		}
		if !reflect.DeepEqual(pa.Summary().Vec, pb.Summary().Vec) {
			t.Fatalf("profile vectors for %s differ", user)
		}
		if !reflect.DeepEqual(snapA.Purchases(user), snapB.Purchases(user)) {
			t.Fatalf("purchase sets for %s differ", user)
		}
	}
	for _, strat := range []Strategy{StrategyCF, StrategyHybrid, StrategyTopSeller} {
		for _, user := range usersA {
			ra, errA := a.Recommend(strat, user, "", 10)
			rb, errB := b.Recommend(strat, user, "", 10)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%v for %s: errors differ: %v vs %v", strat, user, errA, errB)
			}
			if !recsEquivalent(rb, ra) {
				t.Fatalf("%v recommendations for %s differ:\n  a=%v\n  b=%v", strat, user, ra, rb)
			}
		}
	}
	purchaseReadsEqual(t, a, b)
}

func TestPersistentRestartIdenticalRecommendations(t *testing.T) {
	u, profiles := soakUniverse(t)
	dir := t.TempDir()

	e1 := loadEngineErr(t, u, profiles, WithPersistence(dir), WithNeighbors(8))
	mem := loadEngine(u, profiles, WithNeighbors(8))
	// Write-through must not change answers while the engine is live.
	communityEqual(t, mem, e1)
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(u.Catalog, WithPersistence(dir), WithNeighbors(8))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	// The reopened engine is the same community: identical users,
	// profiles, purchases, category streams, and recommendations.
	communityEqual(t, mem, e2)
}

func TestPersistentEngineOperationsAfterRecovery(t *testing.T) {
	u, profiles := soakUniverse(t)
	dir := t.TempDir()
	e1 := loadEngineErr(t, u, profiles, WithPersistence(dir))
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// The recovered engine keeps accepting writes, and a third generation
	// sees them.
	e2, err := Open(u.Catalog, WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	newcomer := profile.NewProfile("newcomer")
	prod := u.Catalog.All()[0]
	if err := newcomer.Observe(prod.Evidence(profile.BehaviourBuy)); err != nil {
		t.Fatal(err)
	}
	if err := e2.SetProfile(newcomer); err != nil {
		t.Fatal(err)
	}
	if err := e2.RecordPurchase("newcomer", prod.ID); err != nil {
		t.Fatal(err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	e3, err := Open(u.Catalog, WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	p, err := e3.Profile("newcomer")
	if err != nil {
		t.Fatalf("newcomer lost across second restart: %v", err)
	}
	if p.Observed != 1 {
		t.Errorf("newcomer.Observed = %d, want 1", p.Observed)
	}
	if !e3.Snapshot().Purchases("newcomer")[prod.ID] {
		t.Error("newcomer's purchase lost across second restart")
	}
}

func TestCrashMidBatchRecoversPrefix(t *testing.T) {
	u, profiles := soakUniverse(t)
	dir := t.TempDir()
	e1 := loadEngineErr(t, u, profiles, WithPersistence(dir))
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, CommunityWAL)
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	intact := fi.Size()

	// One more SetProfile = exactly one WAL record; chop into its middle
	// to simulate a crash mid-append.
	e2, err := Open(u.Catalog, WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	late := profile.NewProfile("late-writer")
	if err := late.Observe(u.Catalog.All()[0].Evidence(profile.BehaviourBuy)); err != nil {
		t.Fatal(err)
	}
	if err := e2.SetProfile(late); err != nil {
		t.Fatal(err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	fi2, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if fi2.Size() <= intact {
		t.Fatalf("SetProfile appended nothing: %d -> %d", intact, fi2.Size())
	}
	if err := os.Truncate(wal, intact+(fi2.Size()-intact)/2); err != nil {
		t.Fatal(err)
	}

	e3, err := Open(u.Catalog, WithPersistence(dir))
	if err != nil {
		t.Fatalf("Open after torn tail: %v", err)
	}
	defer e3.Close()
	if _, err := e3.Profile("late-writer"); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("torn write visible after recovery: %v", err)
	}
	// The prefix — the full seeded community — must be intact.
	if got, want := len(e3.Users()), len(profiles); got != want {
		t.Errorf("recovered %d users, want %d", got, want)
	}
	mem := loadEngine(u, profiles)
	communityEqual(t, mem, e3)
}

func TestSetProfilesEquivalence(t *testing.T) {
	u, profiles := soakUniverse(t)

	one := NewEngine(u.Catalog, WithNeighbors(8))
	for _, p := range profiles {
		if err := one.SetProfile(p); err != nil {
			t.Fatal(err)
		}
	}
	bulk := NewEngine(u.Catalog, WithNeighbors(8))
	if err := bulk.SetProfiles(profiles); err != nil {
		t.Fatal(err)
	}
	for user, pids := range u.Purchases() {
		for _, pid := range pids {
			one.RecordPurchase(user, pid)
			bulk.RecordPurchase(user, pid)
		}
	}
	communityEqual(t, one, bulk)
}

func TestSetProfilesLaterDuplicateWins(t *testing.T) {
	u, _ := soakUniverse(t)
	prods := u.Catalog.All()

	older := profile.NewProfile("dup")
	if err := older.Observe(prods[0].Evidence(profile.BehaviourBuy)); err != nil {
		t.Fatal(err)
	}
	newer := profile.NewProfile("dup")
	if err := newer.Observe(prods[1].Evidence(profile.BehaviourBuy)); err != nil {
		t.Fatal(err)
	}

	e := NewEngine(u.Catalog)
	if err := e.SetProfiles([]*profile.Profile{older, newer}); err != nil {
		t.Fatal(err)
	}
	got, err := e.Profile("dup")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Summary().Vec, newer.Summary().Vec) {
		t.Error("SetProfiles kept the earlier duplicate")
	}
	// The category streams must hold exactly the later profile's
	// categories: the earlier duplicate's would leak ghost candidates.
	seq := NewEngine(u.Catalog)
	seq.SetProfile(older)
	seq.SetProfile(newer)
	cats := []string{prods[0].Category, prods[1].Category}
	if a, b := categoryMembers(e.Snapshot(), cats), categoryMembers(seq.Snapshot(), cats); !reflect.DeepEqual(a, b) {
		t.Errorf("batch category streams %v != sequential %v", a, b)
	}
}

func TestSetProfilesReplacementDropsStalePostings(t *testing.T) {
	u, profiles := soakUniverse(t)
	e := NewEngine(u.Catalog)
	if err := e.SetProfiles(profiles); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	cats := snapCategories(e.Snapshot())

	// Replace every profile with a fresh single-category one via the bulk
	// path: every consumer must leave the other categories' streams.
	prod := u.Catalog.All()[0]
	replacement := make([]*profile.Profile, len(profiles))
	for i, p := range profiles {
		np := profile.NewProfile(p.UserID)
		if err := np.Observe(prod.Evidence(profile.BehaviourBuy)); err != nil {
			t.Fatal(err)
		}
		replacement[i] = np
	}
	if err := e.SetProfiles(replacement); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.Users != before.Users {
		t.Errorf("users changed: %d -> %d", before.Users, after.Users)
	}
	members := categoryMembers(e.Snapshot(), cats)
	if len(members) != 1 || len(members[prod.Category]) != len(profiles) {
		t.Errorf("stale categories streamed: %d categories, %d in %s (want 1, %d)",
			len(members), len(members[prod.Category]), prod.Category, len(profiles))
	}
}

func TestOpenErrorPaths(t *testing.T) {
	// A state dir path that is an existing file must fail cleanly.
	f := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	u, _ := soakUniverse(t)
	if _, err := Open(u.Catalog, WithPersistence(f)); err == nil {
		t.Error("Open with file-as-dir succeeded")
	}
	// NewEngine must refuse (loudly) rather than silently drop durability.
	defer func() {
		if recover() == nil {
			t.Error("NewEngine with failing persistence did not panic")
		}
	}()
	NewEngine(u.Catalog, WithPersistence(f))
}

// TestOpenRefusesNonPositiveSellCount: a purchase only ever journals a sell
// count of one or more, so a journal holding less is corrupt, and recovery
// says so rather than serving a total that cancels other shards' sales.
func TestOpenRefusesNonPositiveSellCount(t *testing.T) {
	for _, total := range []string{"0", "-5"} {
		dir := t.TempDir()
		store, err := kvstore.Open(filepath.Join(dir, CommunityWAL))
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Apply([]kvstore.Op{{Bucket: sellBucket(0), Key: "p1", Value: []byte(total)}}); err != nil {
			t.Fatal(err)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		if e, err := Open(nil, WithShards(2), WithPersistence(dir)); err == nil {
			e.Close()
			t.Fatalf("journal with sell count %s for p1 opened", total)
		}
	}
}

func TestCompactState(t *testing.T) {
	u, profiles := soakUniverse(t)
	if err := NewEngine(u.Catalog).CompactState(); !errors.Is(err, ErrNoPersistence) {
		t.Errorf("CompactState on memory engine = %v, want ErrNoPersistence", err)
	}

	dir := t.TempDir()
	e := loadEngineErr(t, u, profiles, WithPersistence(dir))
	// Overwrite every profile a few times to bloat the journal.
	for i := 0; i < 3; i++ {
		if err := e.SetProfiles(profiles); err != nil {
			t.Fatal(err)
		}
	}
	wal := filepath.Join(dir, CommunityWAL)
	before, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CompactState(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Errorf("CompactState did not shrink journal: %d -> %d", before.Size(), after.Size())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(u.Catalog, WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	communityEqual(t, loadEngine(u, profiles), e2)
}

// TestPersistentConcurrentSoak is the -race soak for the durable path:
// concurrent writers (SetProfile, RecordPurchase, bulk SetProfiles) and
// readers (Recommend, Profile, Users, Snapshot) churn a durable engine,
// then a restart must recover a community identical to a serial replay.
func TestPersistentConcurrentSoak(t *testing.T) {
	u, profiles := soakUniverse(t)
	dir := t.TempDir()
	e, err := Open(u.Catalog, WithPersistence(dir), WithNeighbors(8), WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetProfiles(profiles); err != nil {
		t.Fatal(err)
	}

	const (
		goroutines = 8
		iterations = 120
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 99))
			for i := 0; i < iterations; i++ {
				usr := u.Users[rng.IntN(len(u.Users))]
				switch i % 6 {
				case 0:
					if err := e.SetProfile(profiles[rng.IntN(len(profiles))]); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if err := e.RecordPurchase(usr.ID, usr.Held[rng.IntN(len(usr.Held))]); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if _, err := e.Recommend(StrategyCF, usr.ID, "", 5); err != nil && !errors.Is(err, ErrUnknownUser) {
						t.Error(err)
						return
					}
				case 3:
					if _, err := e.Profile(usr.ID); err != nil && !errors.Is(err, ErrUnknownUser) {
						t.Error(err)
						return
					}
				case 4:
					snap := e.Snapshot()
					_ = snap.Purchases(usr.ID)
				case 5:
					lo := rng.IntN(len(profiles) - 4)
					if err := e.SetProfiles(profiles[lo : lo+4]); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := e.Err(); err != nil {
		t.Fatalf("sticky persistence error after soak: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Every profile write wrote one of the same immutable profiles, so the
	// recovered community must match a serial install exactly; purchases
	// are a subset of Held per user, all durable.
	e2, err := Open(u.Catalog, WithPersistence(dir), WithNeighbors(8), WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got, want := len(e2.Users()), len(profiles); got != want {
		t.Fatalf("recovered %d users, want %d", got, want)
	}
	mem := loadEngine(u, profiles, WithNeighbors(8))
	snap := e2.Snapshot()
	cats := snapCategories(mem.Snapshot())
	if got, want := categoryMembers(snap, cats), categoryMembers(mem.Snapshot(), cats); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered category streams differ from a serial install's: %d vs %d categories", len(got), len(want))
	}
	for _, usr := range u.Users {
		held := make(map[string]bool, len(usr.Held))
		for _, pid := range usr.Held {
			held[pid] = true
		}
		for pid := range snap.Purchases(usr.ID) {
			if !held[pid] {
				t.Fatalf("user %s recovered purchase %s they never made", usr.ID, pid)
			}
		}
	}
}

// TestPersisterInterfaceInjectable pins the Persister seam: a failing
// injected implementation surfaces errors instead of corrupting state.
func TestPersisterInterfaceInjectable(t *testing.T) {
	u, _ := soakUniverse(t)
	e, err := Open(u.Catalog, WithPersister(failingPersister{}))
	if err == nil || err.Error() == "" {
		t.Fatalf("Open with failing persister = %v, want recovery error", err)
	}
	_ = e
}

type failingPersister struct{}

var errInjected = errors.New("injected persister failure")

func (failingPersister) SaveWrite(int, []*profile.Profile, [][]byte, []PurchasePair, []SellCount) error {
	return errInjected
}
func (failingPersister) SaveShard(int, ShardData) error   { return errInjected }
func (failingPersister) LoadShard(int) (ShardData, error) { return ShardData{}, errInjected }
func (failingPersister) Compact() error                   { return nil }
func (failingPersister) SizeStats() (kvstore.SizeStats, error) {
	return kvstore.SizeStats{}, errInjected
}
func (failingPersister) Close() error { return nil }

var _ = fmt.Sprintf // keep fmt imported for debugging edits
