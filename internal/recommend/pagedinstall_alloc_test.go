//go:build !race

package recommend

import (
	"math"
	"runtime"
	"testing"
)

// TestPagedInstallAllocBudget prices one paged shard install: shard 0 of the
// benchmark universe (2 000 consumers in 16 shards) cut as one page,
// assembled by ShardData.add and installed by applyShardSnapshot, on a
// durable and on a memory-only follower. Each ceiling is the value measured
// when it was set, plus 2 %; the race detector's counts differ, so the test
// runs without it.
func TestPagedInstallAllocBudget(t *testing.T) {
	u, profiles := benchUniverse(t)
	owner := bulkEngine(t, u, profiles, WithJournalFeed(0))
	tr, err := owner.JournalTail(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := owner.SnapshotPage(0, tr.Epoch, tr.Seq, "", math.MaxInt)
	if err != nil || pg.Next != "" {
		t.Fatalf("shard 0 as one page: next %q, %v", pg.Next, err)
	}
	for _, tc := range []struct {
		name    string
		durable bool
		budget  uint64
	}{
		{"durable", true, 25503},      // 25 003 measured + 2 %
		{"memory-only", false, 21294}, // 20 877 measured + 2 %
	} {
		got := installAllocs(t, pg, func() *Engine {
			opts := []Option{WithJournalFeed(0)}
			if tc.durable {
				opts = append(opts, WithPersistence(t.TempDir()))
			}
			f, err := Open(u.Catalog, opts...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f
		})
		t.Logf("%s follower: %d allocations per install of %d profiles, %d purchases, %d sells (budget %d)",
			tc.name, got, len(pg.Profiles), len(pg.Purchases), len(pg.Sells), tc.budget)
		if got > tc.budget {
			t.Errorf("%s follower: %d allocations per install, budget %d", tc.name, got, tc.budget)
		}
	}
}

// installAllocs is the fewest allocations, over three fresh followers from
// open, of assembling pg as shard 0's image and installing it.
func installAllocs(t *testing.T, pg SnapshotPage, open func() *Engine) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	best := uint64(math.MaxUint64)
	for range 3 {
		f := open()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var data ShardData
		if err := data.add(0, f.nshards, pg); err != nil {
			t.Fatal(err)
		}
		if err := f.applyShardSnapshot(0, data, (*OwnershipTable).admitOwner); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	return best
}
