package recommend

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"agentrec/internal/profile"
	"agentrec/internal/workload"
)

func TestStaticOwnershipMatchesOwnerOf(t *testing.T) {
	m := StaticOwnership(16, 3)
	if m.Epoch != 1 {
		t.Fatalf("static map epoch = %d, want 1", m.Epoch)
	}
	for s := 0; s < 16; s++ {
		if got, want := m.Owner(s), OwnerOf(s, 3); got != want {
			t.Fatalf("shard %d: map owner %d, OwnerOf %d", s, got, want)
		}
	}
	if m.Owner(-1) != -1 || m.Owner(16) != -1 {
		t.Fatal("out-of-range shards must report owner -1")
	}
}

func TestOwnershipMapHashDiscriminates(t *testing.T) {
	a := StaticOwnership(8, 2)
	b := StaticOwnership(8, 2)
	if a.Hash() != b.Hash() {
		t.Fatal("identical maps must hash identically")
	}
	c := StaticOwnership(8, 3)
	if a.Hash() == c.Hash() {
		t.Fatal("different assignments must hash differently")
	}
	d := a.Clone()
	d.Epoch = 2
	if a.Hash() == d.Hash() {
		t.Fatal("different epochs must hash differently")
	}
}

func TestDiffOwnership(t *testing.T) {
	prev := StaticOwnership(4, 2) // 0 1 0 1
	next := prev.Clone()
	next.Epoch = 2
	next.Assign[2] = 1
	moves := DiffOwnership(prev, next)
	if len(moves) != 1 {
		t.Fatalf("moves = %+v, want exactly shard 2", moves)
	}
	if m := moves[0]; m.Shard != 2 || m.From != 0 || m.To != 1 {
		t.Fatalf("move = %+v, want {2 0 1}", m)
	}
	if DiffOwnership(prev, prev) != nil {
		t.Fatal("identical assignments must diff empty")
	}
}

func TestRendezvousOwnerStability(t *testing.T) {
	// Removing one server must move only that server's shards.
	all := []int{0, 1, 2}
	without2 := []int{0, 1}
	for s := 0; s < 64; s++ {
		before := RendezvousOwner(s, all)
		after := RendezvousOwner(s, without2)
		if before != 2 && after != before {
			t.Fatalf("shard %d moved %d -> %d though server 2's departure should not affect it", s, before, after)
		}
		if before == 2 && after == 2 {
			t.Fatalf("shard %d still assigned to removed server 2", s)
		}
	}
	if RendezvousOwner(0, nil) != -1 {
		t.Fatal("no live servers must yield owner -1")
	}
}

func TestOwnershipTableAdvanceMonotonic(t *testing.T) {
	tab := NewOwnershipTable(StaticOwnership(4, 2))
	newer := StaticOwnership(4, 2)
	newer.Epoch = 3
	newer.Assign[0] = 1
	if !tab.Advance(newer) {
		t.Fatal("strictly newer map must be adopted")
	}
	if tab.Epoch() != 3 || tab.Owner(0) != 1 {
		t.Fatalf("table = epoch %d owner(0)=%d, want 3/1", tab.Epoch(), tab.Owner(0))
	}
	stale := StaticOwnership(4, 2) // epoch 1
	if tab.Advance(stale) {
		t.Fatal("stale map must be ignored")
	}
	same := newer.Clone()
	same.Assign[1] = 0
	if tab.Advance(same) {
		t.Fatal("same-epoch map must be ignored")
	}
}

func TestOwnershipTableLeaseDiscipline(t *testing.T) {
	tab := NewOwnershipTable(StaticOwnership(4, 2))
	if err := tab.Expired(); err != nil {
		t.Fatalf("never-leased (static) table must not expire: %v", err)
	}
	tab.Lease(time.Now().Add(time.Hour))
	if err := tab.Expired(); err != nil {
		t.Fatalf("live lease must not expire: %v", err)
	}
	tab.Lease(time.Now().Add(-time.Millisecond))
	if err := tab.Expired(); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("lapsed lease: err = %v, want ErrLeaseExpired", err)
	}
	// Fence must refuse everything while the lease is lapsed.
	if err := tab.Fence(1, 0, 0); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("fence under lapsed lease: err = %v, want ErrLeaseExpired", err)
	}
	tab.Lease(time.Now().Add(time.Hour))
	if err := tab.Fence(1, 0, 0); err != nil {
		t.Fatalf("fence after renewal: %v", err)
	}
}

func TestOwnershipTableFence(t *testing.T) {
	tab := NewOwnershipTable(StaticOwnership(4, 2)) // owners: 0 1 0 1
	if err := tab.Fence(1, 0, 0); err != nil {
		t.Fatalf("matching epoch, owned shard: %v", err)
	}
	if err := tab.Fence(2, 0, 0); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("ahead-of-receiver epoch: err = %v, want ErrStaleEpoch", err)
	}
	if err := tab.Fence(0, 0, 0); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("unstamped frame: err = %v, want ErrStaleEpoch", err)
	}
	if err := tab.Fence(1, 1, 0); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("unowned shard: err = %v, want ErrNotOwner", err)
	}
}

// TestOwnedWriterFencesRoutedWrites drives the in-process analogue of a
// deposed owner replaying buffered routed writes: once the receiver's map
// moves to a newer epoch, every Writer method of the stale sender fails
// with ErrStaleEpoch and no state is half-applied.
func TestOwnedWriterFencesRoutedWrites(t *testing.T) {
	u, err := workload.Generate(workload.Config{
		Seed: 23, Users: 10, Products: 40, Categories: 4, RelevantPerUser: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(u.Catalog, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	recv := eng.Ownership() // a lone engine: server 0 owns all
	send := NewOwnershipTable(StaticOwnership(4, 1))
	w := OwnedWriter{Local: eng, Sender: send}

	prof := profile.NewProfile("user-1")
	if err := w.SetProfile(prof); err != nil {
		t.Fatalf("same-epoch write: %v", err)
	}

	// The receiver's world moves on; the sender keeps its old map.
	moved := recv.Current()
	moved.Epoch = 2
	recv.Advance(moved)

	if err := w.SetProfile(prof); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale SetProfile: err = %v, want ErrStaleEpoch", err)
	}
	if err := w.SetProfiles([]*profile.Profile{prof}); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale SetProfiles: err = %v, want ErrStaleEpoch", err)
	}
	if err := w.RecordPurchase("user-1", "p1"); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale RecordPurchase: err = %v, want ErrStaleEpoch", err)
	}
	if err := w.RecordPurchaseAt("user-1", "p1", time.Now()); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale RecordPurchaseAt: err = %v, want ErrStaleEpoch", err)
	}
}

// TestBindOwnership pins the binding rules: the first binding adopts the
// table, a later one only checks it, and a binding under another self or to
// a map with another epoch or assignment is refused. The router and the
// replicator bind through the same call.
func TestBindOwnership(t *testing.T) {
	static := func(servers int) *OwnershipTable { return NewOwnershipTable(StaticOwnership(4, servers)) }
	advanced := func() *OwnershipTable {
		t := static(2)
		t.Advance(OwnershipMap{Epoch: 2, Assign: []int{0, 1, 0, 1}})
		return t
	}
	for _, tc := range []struct {
		name        string
		first, then *OwnershipTable
		self        int
		ok          bool
	}{
		{"same map and self", static(2), static(2), 1, true},
		{"other self", static(2), static(2), 0, false},
		{"other epoch", static(2), advanced(), 1, false},
		{"other assignment", static(2), static(3), 1, false},
		{"bound table moved on", advanced(), static(2), 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := Open(nil, WithShards(4))
			if err != nil {
				t.Fatal(err)
			}
			if got := eng.Ownership().Current(); got.Epoch != 1 || !slices.Equal(got.Assign, []int{0, 0, 0, 0}) {
				t.Fatalf("unbound engine holds %+v, want the one-server map", got)
			}
			if got, err := eng.BindOwnership(tc.first, 1); err != nil || got != tc.first || eng.Ownership() != tc.first {
				t.Fatalf("first binding: table %p, err %v; want %p adopted", got, err, tc.first)
			}
			if got, err := eng.BindOwnership(tc.first, 1); err != nil || got != tc.first {
				t.Fatalf("rebinding the bound table: table %p, err %v", got, err)
			}
			got, err := eng.BindOwnership(tc.then, tc.self)
			if tc.ok {
				if err != nil || got != tc.first {
					t.Fatalf("matching binding: table %p, err %v; want the bound %p", got, err, tc.first)
				}
				return
			}
			if !errors.Is(err, ErrOwnershipBound) || got != nil {
				t.Fatalf("conflicting binding: table %p, err %v; want ErrOwnershipBound", got, err)
			}
			if eng.Ownership() != tc.first {
				t.Fatal("a refused binding replaced the bound table")
			}
		})
	}

	t.Run("router and replicator", func(t *testing.T) {
		eng, err := Open(nil, WithShards(4))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewRouter(eng, 1, []Writer{eng, nil, eng}); err != nil {
			t.Fatalf("router binding an unbound engine: %v", err)
		}
		if _, err := NewRouter(eng, 0, []Writer{nil, eng, eng}); !errors.Is(err, ErrOwnershipBound) {
			t.Fatalf("router as another self: err = %v, want ErrOwnershipBound", err)
		}
		peer := LocalPeer{Engine: eng}
		if _, err := NewReplicator(eng, 1, []Peer{peer, nil}); !errors.Is(err, ErrOwnershipBound) {
			t.Fatalf("replicator over another map: err = %v, want ErrOwnershipBound", err)
		}
		if _, err := NewReplicator(eng, 1, []Peer{peer, nil, peer}); err != nil {
			t.Fatalf("replicator over the bound map: %v", err)
		}
	})
}

// TestBindOwnershipConcurrent binds one engine from many goroutines while
// writes run: every binding of the same map gets the one bound table, and
// the race detector sees the binding and the writes' reads of it ordered.
func TestBindOwnershipConcurrent(t *testing.T) {
	eng, err := Open(nil, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	tables := make([]*OwnershipTable, 8)
	for i := range tables {
		wg.Add(2)
		go func() {
			defer wg.Done()
			tables[i], _ = eng.BindOwnership(NewOwnershipTable(StaticOwnership(4, 1)), 0)
		}()
		go func() {
			defer wg.Done()
			if err := eng.SetProfile(profile.NewProfile(fmt.Sprintf("u%d", i))); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, tab := range tables {
		if tab == nil || tab != eng.Ownership() {
			t.Fatalf("binding %d got table %p, want the bound %p", i, tab, eng.Ownership())
		}
	}
}
