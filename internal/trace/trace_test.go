package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecordAndEvents(t *testing.T) {
	r := New()
	r.Record("query", 1, "Buyer", "HttpA", "query request")
	r.Record("query", 2, "HttpA", "BSMA", "forward")

	got := r.Events()
	if len(got) != 2 {
		t.Fatalf("Events() len = %d, want 2", len(got))
	}
	if got[0].From != "Buyer" || got[0].To != "HttpA" || got[0].Step != 1 {
		t.Errorf("first event = %+v", got[0])
	}
	if got[1].Seq <= got[0].Seq {
		t.Errorf("Seq not monotonic: %d then %d", got[0].Seq, got[1].Seq)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record("query", 1, "a", "b", "x") // must not panic
	r.Reset()
	r.SetClock(nil)
	if r.Len() != 0 {
		t.Errorf("nil recorder Len = %d, want 0", r.Len())
	}
	if got := r.Events(); got != nil {
		t.Errorf("nil recorder Events = %v, want nil", got)
	}
	if got := r.Drain(); got != nil {
		t.Errorf("nil recorder Drain = %v, want nil", got)
	}
}

func TestWorkflowFiltersAndSortsBySteps(t *testing.T) {
	r := New()
	// Steps recorded out of order, as concurrent agents would.
	r.Record("buy", 2, "HttpA", "BSMA", "forward")
	r.Record("query", 9, "MBA", "Marketplace", "search")
	r.Record("buy", 1, "Buyer", "HttpA", "buy request")
	r.Record("buy", 3, "BSMA", "BRA", "activate")

	got := r.Workflow("buy")
	if len(got) != 3 {
		t.Fatalf("Workflow(buy) len = %d, want 3", len(got))
	}
	for i, want := range []int{1, 2, 3} {
		if got[i].Step != want {
			t.Errorf("step[%d] = %d, want %d", i, got[i].Step, want)
		}
	}
}

func TestWorkflowStableWithinStep(t *testing.T) {
	r := New()
	r.Record("w", 1, "a", "b", "first")
	r.Record("w", 1, "c", "d", "second")
	got := r.Workflow("w")
	if got[0].Action != "first" || got[1].Action != "second" {
		t.Errorf("within-step order not stable: %v, %v", got[0], got[1])
	}
}

func TestVerifyExactMatch(t *testing.T) {
	r := New()
	r.Record("creation", 1, "Server", "CA", "request to be buyer agent server")
	r.Record("creation", 2, "CA", "BSMA", "create")
	err := r.Verify("creation", []Expectation{
		{Step: 1, From: "Server", To: "CA"},
		{Step: 2, From: "CA", To: "BSMA"},
	})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyLengthMismatch(t *testing.T) {
	r := New()
	r.Record("creation", 1, "Server", "CA", "request")
	err := r.Verify("creation", []Expectation{
		{Step: 1, From: "Server", To: "CA"},
		{Step: 2, From: "CA", To: "BSMA"},
	})
	if err == nil {
		t.Fatal("Verify accepted a short trace")
	}
	if !strings.Contains(err.Error(), "recorded 1 events") {
		t.Errorf("error %q does not name the count", err)
	}
}

func TestVerifyActorMismatch(t *testing.T) {
	r := New()
	r.Record("creation", 1, "Imposter", "CA", "request")
	err := r.Verify("creation", []Expectation{{Step: 1, From: "Server", To: "CA"}})
	if err == nil {
		t.Fatal("Verify accepted wrong actor")
	}
	if !strings.Contains(err.Error(), "Imposter") {
		t.Errorf("error %q does not name the offending actor", err)
	}
}

func TestVerifyStepGap(t *testing.T) {
	r := New()
	r.Record("w", 1, "a", "b", "x")
	r.Record("w", 3, "b", "c", "y") // step 2 missing
	err := r.Verify("w", []Expectation{
		{Step: 1, From: "a", To: "b"},
		{Step: 2, From: "b", To: "c"},
	})
	if err == nil {
		t.Fatal("Verify accepted a step gap")
	}
}

func TestResetClearsEventsAndSeq(t *testing.T) {
	r := New()
	r.Record("w", 1, "a", "b", "x")
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("Len after Reset = %d", r.Len())
	}
	r.Record("w", 1, "a", "b", "x")
	if got := r.Events(); got[0].Seq != 1 {
		t.Errorf("Seq after Reset = %d, want 1", got[0].Seq)
	}
}

func TestDrainEmptiesAndKeepsSeq(t *testing.T) {
	r := New()
	r.Record("w", 1, "a", "b", "x")
	r.Record("w", 2, "b", "a", "y")
	if got := r.Drain(); len(got) != 2 || got[0].Step != 1 || got[1].Step != 2 {
		t.Fatalf("Drain = %v, want both events in record order", got)
	}
	if r.Len() != 0 || r.Drain() != nil {
		t.Fatalf("recorder holds %d events after Drain", r.Len())
	}
	r.Record("w", 3, "a", "b", "z")
	if got := r.Events(); got[0].Seq != 3 {
		t.Errorf("Seq after Drain = %d, want 3 (Drain is not Reset)", got[0].Seq)
	}
}

func TestSetClock(t *testing.T) {
	r := New()
	fixed := time.Date(2004, 3, 29, 0, 0, 0, 0, time.UTC) // AINA'04
	r.SetClock(func() time.Time { return fixed })
	r.Record("w", 1, "a", "b", "x")
	if got := r.Events()[0].At; !got.Equal(fixed) {
		t.Errorf("At = %v, want %v", got, fixed)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Workflow: "query", Step: 7, From: "BRA", To: "MBA", Action: "dispatch"}
	want := "query[7] BRA->MBA: dispatch"
	if e.String() != want {
		t.Errorf("String() = %q, want %q", e.String(), want)
	}
}

func TestTranscript(t *testing.T) {
	r := New()
	r.Record("w", 2, "b", "c", "y")
	r.Record("w", 1, "a", "b", "x")
	got := r.Transcript("w")
	want := "w[1] a->b: x\nw[2] b->c: y\n"
	if got != want {
		t.Errorf("Transcript = %q, want %q", got, want)
	}
}

func TestConcurrentRecord(t *testing.T) {
	r := New()
	const goroutines, perG = 16, 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Record("w", i, "a", "b", "x")
			}
		}()
	}
	wg.Wait()
	if r.Len() != goroutines*perG {
		t.Fatalf("Len = %d, want %d", r.Len(), goroutines*perG)
	}
	// All Seq values must be distinct.
	seen := make(map[uint64]bool, r.Len())
	for _, e := range r.Events() {
		if seen[e.Seq] {
			t.Fatalf("duplicate Seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}
