//go:build !race

package recommend

import (
	"runtime"
	"testing"

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
