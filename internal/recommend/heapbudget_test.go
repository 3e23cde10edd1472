//go:build !race

package recommend

import (
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"agentrec/internal/profile"
	"agentrec/internal/workload"
)

// retainedBytesPerConsumer is the ceiling of TestRetainedHeapPerConsumer:
// the value measured when it was set, plus 2 %. A change that lowers the
// measurement by 10 % or more lowers it too; one that raises it says why.
const retainedBytesPerConsumer = 1641 // 1 608 measured + 2 %

// TestRetainedHeapPerConsumer: the live heap an engine keeps per consumer —
// stored profile, summary, purchase list and the maps that hold them, the
// published shard views' included — at 5 000 generated consumers over the
// benchmark's 1 200 products in 16 categories. Not under -race, which
// changes what is allocated.
func TestRetainedHeapPerConsumer(t *testing.T) {
	const users = 5000
	u, err := workload.Generate(workload.Config{Seed: 43, Users: users, Products: 1200, Categories: 16})
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := u.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	// The term dictionary is process-wide and other tests fill it too:
	// intern the vocabulary first, so it is not billed here however the
	// tests run.
	for _, p := range profiles {
		p.Summary()
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	e := bulkEngine(t, u, profiles)
	e.Snapshot() // publish every shard's view, as any reader would
	after := live()
	runtime.KeepAlive(e)
	runtime.KeepAlive(profiles)
	per := float64(after-before) / users
	t.Logf("%.0f retained bytes per consumer (ceiling %d)", per, retainedBytesPerConsumer)
	if per > retainedBytesPerConsumer {
		t.Fatalf("%.0f retained bytes per consumer, ceiling %d", per, retainedBytesPerConsumer)
	}
}

// TestJournalRecordBudget: a journal feed retains up to DefaultJournalTail
// records per shard, so every field of a JournalRecord is paid per retained
// record. The record is its seq and its write's two parts, 56 bytes on a
// 64-bit platform, and a lone purchase and the Profile Agent's Fig 4.3
// buy, each on an engine with a feed, leave one record of that one shape:
// the purchase its sale alone, the buy its profile and its sale.
func TestJournalRecordBudget(t *testing.T) {
	if size := unsafe.Sizeof(JournalRecord{}); strconv.IntSize == 64 && size != 56 {
		t.Fatalf("JournalRecord is %d bytes, want 56", size)
	}
	e := fixture(t, WithJournalFeed(0))
	shard, at := e.ShardOf("eve"), time.UnixMilli(1_700_000_000_000)
	ev := profile.Evidence{Category: "camera", Terms: map[string]float64{"zoom": 1}, Behaviour: profile.BehaviourBuy}
	for _, row := range []struct {
		name, product string
		evs           []profile.Evidence
	}{
		{"purchase", "cam1", nil},
		{"buy", "cam2", []profile.Evidence{ev}},
	} {
		before := e.FeedHeads()[shard]
		if err := e.Observe("eve", row.evs, []PurchasePair{PurchaseAt("eve", row.product, at)}); err != nil {
			t.Fatal(err)
		}
		tr, err := e.JournalTail(shard, e.feedEpoch, before)
		if err != nil || len(tr.Records) != 1 {
			t.Fatalf("%s: tail after the write = %+v, %v; want one record", row.name, tr, err)
		}
		rec := tr.Records[0]
		if len(rec.Profiles) != len(row.evs) || !slices.Equal(rec.Purchases, []PurchasePair{PurchaseAt("eve", row.product, at)}) {
			t.Errorf("%s: record = %d profiles, purchases %+v; want %d profiles and the one sale", row.name, len(rec.Profiles), rec.Purchases, len(row.evs))
		}
	}
}
