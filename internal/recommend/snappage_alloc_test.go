//go:build !race

package recommend

import (
	"math"
	"runtime"
	"testing"
)

// TestSnapshotPageAllocBudget prices a snapshot page cut: shard 0 of the
// benchmark universe (127 of 2 000 consumers in 16 shards) paged at a 16 KiB
// budget. It gates one continuation page, cut from the transfer's pin, and
// the whole transfer, pin included. Each ceiling is the value measured when
// it was set, plus 2 %; the race detector's counts differ, so the test runs
// without it.
func TestSnapshotPageAllocBudget(t *testing.T) {
	const (
		pageBytes      = 16 << 10
		pageBudget     = 866   // second page: 849 measured + 2 %
		transferBudget = 15521 // whole transfer: 15 217 measured + 2 %
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	u, profiles := benchUniverse(t)
	owner := bulkEngine(t, u, profiles, WithJournalFeed(0))
	tr, err := owner.JournalTail(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	page := func(token string) SnapshotPage {
		pg, err := owner.SnapshotPage(0, tr.Epoch, tr.Seq, token, pageBytes)
		if err != nil {
			t.Fatal(err)
		}
		return pg
	}

	transfer, bytes, pages := uint64(math.MaxUint64), uint64(0), 0
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := 1
		for pg := page(""); pg.Next != ""; n++ {
			pg = page(pg.Next)
		}
		runtime.ReadMemStats(&after)
		if got := after.Mallocs - before.Mallocs; got < transfer {
			transfer, bytes, pages = got, after.TotalAlloc-before.TotalAlloc, n
		}
	}
	second := page("").Next
	if second == "" {
		t.Fatal("shard 0 fits one page; the row no longer prices a continuation")
	}
	cont := testing.AllocsPerRun(100, func() { page(second) })
	t.Logf("%d pages: %d allocations, %d B per transfer; %.0f allocations for the second page", pages, transfer, bytes, cont)
	if cont > pageBudget {
		t.Errorf("second page: %.0f allocations, budget %d", cont, pageBudget)
	}
	if transfer > transferBudget {
		t.Errorf("whole transfer: %d allocations, budget %d", transfer, transferBudget)
	}
}
