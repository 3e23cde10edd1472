package loadgen

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"agentrec/internal/workload"
)

// synthNext is a deterministic schedule for driver tests: op i carries its
// index in TopN so the target can make per-op decisions, and cycles kinds.
func synthNext(i uint64) workload.Op {
	return workload.Op{Kind: workload.OpKind(i % 3), TopN: int(i)}
}

// TestDriveSoak is the -race soak from the issue: many workers, injected
// slow responses and injected errors, then exact accounting — no op may be
// dropped or double-counted anywhere in the final histogram totals.
func TestDriveSoak(t *testing.T) {
	const (
		rate     = 4000.0
		duration = 1500 * time.Millisecond
		slowMod  = 97 // every 97th op stalls
		errMod   = 13 // every 13th op fails
	)
	var issued, failed atomic.Int64
	target := TargetFunc(func(_ context.Context, op workload.Op) error {
		issued.Add(1)
		if op.TopN%slowMod == 0 {
			time.Sleep(3 * time.Millisecond)
		}
		if op.TopN%errMod == 5 {
			failed.Add(1)
			return errors.New("injected failure")
		}
		return nil
	})
	dr, err := Drive(context.Background(), DriveConfig{
		Rate: rate, Duration: duration, Workers: 64,
	}, synthNext, target)
	if err != nil {
		t.Fatal(err)
	}

	want := int64(rate * duration.Seconds())
	if dr.Scheduled != want {
		t.Fatalf("Scheduled = %d, want %d", dr.Scheduled, want)
	}
	if dr.Attempted != dr.Scheduled {
		t.Fatalf("Attempted = %d, want all %d scheduled (ctx never cancelled)", dr.Attempted, dr.Scheduled)
	}
	if got := issued.Load(); got != dr.Attempted {
		t.Fatalf("target saw %d ops, driver counted %d", got, dr.Attempted)
	}
	if dr.Completed+dr.Errors != dr.Attempted {
		t.Fatalf("accounting broken: %d completed + %d errors != %d attempted",
			dr.Completed, dr.Errors, dr.Attempted)
	}
	if got := failed.Load(); got != dr.Errors {
		t.Fatalf("target failed %d ops, driver counted %d errors", got, dr.Errors)
	}
	// Exact expected error count: indices i in [0, want) with i%13 == 5.
	var wantErrs int64
	for i := int64(0); i < want; i++ {
		if i%errMod == 5 {
			wantErrs++
		}
	}
	if dr.Errors != wantErrs {
		t.Fatalf("Errors = %d, want exactly %d", dr.Errors, wantErrs)
	}
	if dr.All.Count() != dr.Completed {
		t.Fatalf("histogram holds %d samples, want %d completed", dr.All.Count(), dr.Completed)
	}
	var kindCompleted, kindErrors, kindHist int64
	for _, kr := range dr.ByKind {
		kindCompleted += kr.Completed
		kindErrors += kr.Errors
		kindHist += kr.Hist.Count()
		if kr.Hist.Count() != kr.Completed {
			t.Fatalf("kind histogram %d samples != %d completed", kr.Hist.Count(), kr.Completed)
		}
	}
	if kindCompleted != dr.Completed || kindErrors != dr.Errors || kindHist != dr.All.Count() {
		t.Fatalf("per-kind totals %d/%d/%d don't reconcile with %d/%d/%d",
			kindCompleted, kindErrors, kindHist, dr.Completed, dr.Errors, dr.All.Count())
	}
	if len(dr.ErrorSample) == 0 || dr.ErrorSample[0] != "injected failure" {
		t.Fatalf("ErrorSample = %v, want the injected failure surfaced", dr.ErrorSample)
	}
}

// TestDriveCancel: a cancelled context stops issuing but never corrupts the
// accounting — in-flight ops finish and are counted.
func TestDriveCancel(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	target := TargetFunc(func(context.Context, workload.Op) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	dr, err := Drive(ctx, DriveConfig{Rate: 500, Duration: 10 * time.Second, Workers: 4}, synthNext, target)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Attempted >= dr.Scheduled {
		t.Fatalf("Attempted = %d, expected an early stop below %d", dr.Attempted, dr.Scheduled)
	}
	if dr.Completed+dr.Errors != dr.Attempted || dr.All.Count() != dr.Completed {
		t.Fatalf("cancelled run broke accounting: %d+%d != %d (hist %d)",
			dr.Completed, dr.Errors, dr.Attempted, dr.All.Count())
	}
}

// TestDriveOpenLoopBacklog: the open-loop property itself. One worker, 5ms
// service, arrivals every 1ms — a closed-loop driver would slow to 200/s
// and report 5ms everywhere; the open-loop driver measures from scheduled
// start, so the growing backlog must surface in the tail.
func TestDriveOpenLoopBacklog(t *testing.T) {
	target := TargetFunc(func(context.Context, workload.Op) error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	dr, err := Drive(context.Background(), DriveConfig{
		Rate: 1000, Duration: 100 * time.Millisecond, Workers: 1,
	}, synthNext, target)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Completed != dr.Scheduled {
		t.Fatalf("completed %d of %d", dr.Completed, dr.Scheduled)
	}
	p99 := time.Duration(dr.All.Quantile(0.99))
	if p99 < 50*time.Millisecond {
		t.Fatalf("p99 = %v; queueing backlog must inflate the tail well past the 5ms service time", p99)
	}
	if min := time.Duration(dr.All.Min()); min < 4*time.Millisecond {
		t.Fatalf("min = %v, below the injected service time", min)
	}
}

// TestDriveConstantSchedule: arrival i lands at exactly i/Rate, so every
// arrival falls inside the run window in order, and a sub-one-arrival run
// still schedules one.
func TestDriveConstantSchedule(t *testing.T) {
	cfg := DriveConfig{Rate: 300, Duration: 2 * time.Second}
	offsets := cfg.schedule()
	if len(offsets) != 600 {
		t.Fatalf("%d arrivals, want 600", len(offsets))
	}
	for i, off := range offsets {
		if want := time.Duration(float64(i) / cfg.Rate * float64(time.Second)); off != want {
			t.Fatalf("arrival %d at %v, want %v", i, off, want)
		}
		if off >= cfg.Duration {
			t.Fatalf("arrival %d at %v outside the run window", i, off)
		}
	}
	if got := (DriveConfig{Rate: 0.5, Duration: time.Second}).schedule(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("sub-one-arrival schedule = %v, want one arrival at 0", got)
	}
}

// TestDriveRejectsBadConfig mirrors the CLI validation: out-of-range knobs
// are errors, not silent clamps.
func TestDriveRejectsBadConfig(t *testing.T) {
	ok := TargetFunc(func(context.Context, workload.Op) error { return nil })
	cases := []DriveConfig{
		{Rate: 0, Duration: time.Second},
		{Rate: -10, Duration: time.Second},
		{Rate: 100, Duration: 0},
		{Rate: 100, Duration: -time.Second},
	}
	for _, cfg := range cases {
		if _, err := Drive(context.Background(), cfg, synthNext, ok); err == nil {
			t.Errorf("Drive(%+v) accepted an invalid config", cfg)
		}
	}
	if _, err := Drive(context.Background(), DriveConfig{Rate: 1, Duration: time.Second}, nil, ok); err == nil {
		t.Error("Drive accepted a nil schedule")
	}
	if _, err := Drive(context.Background(), DriveConfig{Rate: 1, Duration: time.Second}, synthNext, nil); err == nil {
		t.Error("Drive accepted a nil target")
	}
}
