//go:build !race

package buyerserver

import (
	"runtime"
	"testing"
	"time"

	"agentrec/internal/catalog"
)

// TestTaskAllocBudget holds each of the paper's two shopping tasks, run
// end to end through the agents on newMechanism's two-marketplace world, to
// an allocation ceiling of its measured count + 2 %, rounded up, at
// GOMAXPROCS 1:
//
//   - a Fig 4.2 query for laptops: 673, with each marketplace's matches
//     carried home encoded and decoded once, by the BRA;
//   - a Fig 4.3 list-price buy: 603.
//
// They have since fallen to 640 and 565: the homecoming reads and writes
// the MBA's BSMDB record once, and a request is bounded by the agent
// timeout once, where it enters, instead of at every hop. The ceilings
// stay, as a drop under 10 % does not lower them.
//
// The BSMA's reply to the returning MBA and the MBA's disposal can land
// after RunTask returns, so each task is counted once the hosts are idle.
// The race detector changes what is allocated, so the test runs without
// it.
func TestTaskAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := newMechanism(t, 2)
	m.user(t, "alice")
	const runs = 50
	if _, err := m.markets[0].Catalog().AdjustStock("market-1:lap1", runs+1); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	// Every live agent runs on a goroutine of its own, and the MBA's stays
	// up until it disposes at home, so the hosts are idle once the count is
	// back where it started.
	idle := runtime.NumGoroutine()
	for _, row := range []struct {
		name   string
		budget float64
		spec   TaskSpec
	}{
		{"query", 686, TaskSpec{Kind: TaskQuery, Query: catalog.Query{Category: "laptop"}}},
		{"buy", 615, TaskSpec{Kind: TaskBuy, ProductID: "market-1:lap1"}},
	} {
		task := func() {
			if _, err := m.srv.RunTask(ctx, "alice", row.spec); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > idle; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines five seconds after the task, %d before it", runtime.NumGoroutine(), idle)
				}
			}
		}
		task()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			task()
		}
		runtime.ReadMemStats(&after)
		got := float64(after.Mallocs-before.Mallocs) / runs
		t.Logf("%s: %.1f allocations per task", row.name, got)
		if got > row.budget {
			t.Errorf("%s: %.0f allocations per task, budget %.0f", row.name, got, row.budget)
		}
	}
}
