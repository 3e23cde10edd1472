package loadgen

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"agentrec/internal/workload"
)

// Target executes one scheduled operation against the system under load.
// Do is called concurrently from every driver worker.
type Target interface {
	Do(ctx context.Context, op workload.Op) error
}

// TargetFunc adapts a function to Target.
type TargetFunc func(ctx context.Context, op workload.Op) error

// Do implements Target.
func (f TargetFunc) Do(ctx context.Context, op workload.Op) error { return f(ctx, op) }

// DriveConfig parameterizes one open-loop run at a constant arrival rate. A
// rate that changes over time (a capacity sweep) is one Drive per step.
type DriveConfig struct {
	Rate     float64       // arrival rate, ops/sec (> 0)
	Duration time.Duration // how long arrivals are scheduled for (> 0)
	Workers  int           // concurrent issuers [16]
}

func (c DriveConfig) withDefaults() (DriveConfig, error) {
	if c.Rate <= 0 {
		return c, fmt.Errorf("loadgen: rate must be positive, got %g", c.Rate)
	}
	if c.Duration <= 0 {
		return c, fmt.Errorf("loadgen: duration must be positive, got %v", c.Duration)
	}
	if c.Workers <= 0 {
		c.Workers = 16
	}
	return c, nil
}

// schedule precomputes every arrival's offset from the run start: arrival i
// at i/Rate seconds. Open loop: the schedule is fixed by the rate alone —
// completions never influence arrivals, so a slow server faces the same
// incoming traffic a fast one does and the backlog shows up as latency.
func (c DriveConfig) schedule() []time.Duration {
	n := int(c.Rate * c.Duration.Seconds())
	if n < 1 {
		n = 1
	}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / c.Rate * float64(time.Second))
	}
	return out
}

// KindResult is one operation class's share of a run.
type KindResult struct {
	Completed int64
	Errors    int64
	Hist      *Histogram // successful ops' latency, ns, from scheduled start
}

// DriveResult is the measured outcome of one open-loop run.
type DriveResult struct {
	Scheduled int64 // arrivals in the schedule
	Attempted int64 // ops actually issued (== Scheduled unless ctx cancelled)
	Completed int64
	Errors    int64
	Elapsed   time.Duration // first scheduled arrival to last completion
	All       *Histogram    // successful ops' latency, ns, across kinds
	ByKind    map[workload.OpKind]*KindResult

	ErrorSample []string // the first error of each failing worker, at most five
}

// driveWorker is one issuer's private tally; merged after the run so the
// hot path takes no locks.
type driveWorker struct {
	attempted int64
	all       *Histogram
	byKind    [3]KindResult
	firstErr  string
}

// Drive runs the open-loop schedule against target: worker w issues
// arrivals w, w+W, w+2W... at their scheduled times, falling behind (never
// skipping) when the target is slower than the schedule. Latency is
// measured from the scheduled start, so queueing delay — including the
// delay a stalled server inflicts on the arrivals behind it — is part of
// every recorded sample; this is the open-loop answer to coordinated
// omission. next(i) supplies arrival i's operation and must be safe for
// concurrent use (workload.Traffic.Op is).
//
// A cancelled ctx stops issuing early; ops already in flight finish and
// are counted. The invariant Attempted == Completed+Errors == histogram
// totals holds for every return.
func Drive(ctx context.Context, cfg DriveConfig, next func(i uint64) workload.Op, target Target) (*DriveResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if next == nil || target == nil {
		return nil, errors.New("loadgen: Drive needs a schedule and a target")
	}
	offsets := cfg.schedule()
	workers := cfg.Workers
	if workers > len(offsets) {
		workers = len(offsets)
	}

	tallies := make([]*driveWorker, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		tally := &driveWorker{all: NewHistogram()}
		for k := range tally.byKind {
			tally.byKind[k].Hist = NewHistogram()
		}
		tallies[w] = tally
		wg.Add(1)
		go func(w int, tally *driveWorker) {
			defer wg.Done()
			timer := time.NewTimer(0)
			defer timer.Stop()
			if !timer.Stop() {
				<-timer.C
			}
			for i := w; i < len(offsets); i += workers {
				at := start.Add(offsets[i])
				if d := time.Until(at); d > 0 {
					timer.Reset(d)
					select {
					case <-ctx.Done():
						if !timer.Stop() {
							<-timer.C
						}
						return
					case <-timer.C:
					}
				} else if ctx.Err() != nil {
					return
				}
				op := next(uint64(i))
				kind := int(op.Kind)
				if kind < 0 || kind >= len(tally.byKind) {
					kind = 0
				}
				tally.attempted++
				err := target.Do(ctx, op)
				lat := time.Since(at)
				if err != nil {
					tally.byKind[kind].Errors++
					if tally.firstErr == "" {
						tally.firstErr = err.Error()
					}
					continue
				}
				tally.byKind[kind].Completed++
				tally.byKind[kind].Hist.Record(int64(lat))
				tally.all.Record(int64(lat))
			}
		}(w, tally)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &DriveResult{
		Scheduled: int64(len(offsets)),
		Elapsed:   elapsed,
		All:       NewHistogram(),
		ByKind:    make(map[workload.OpKind]*KindResult),
	}
	merged := [3]KindResult{}
	for k := range merged {
		merged[k].Hist = NewHistogram()
	}
	for _, tally := range tallies {
		res.Attempted += tally.attempted
		res.All.Merge(tally.all)
		for k := range tally.byKind {
			merged[k].Completed += tally.byKind[k].Completed
			merged[k].Errors += tally.byKind[k].Errors
			merged[k].Hist.Merge(tally.byKind[k].Hist)
		}
		if tally.firstErr != "" && len(res.ErrorSample) < 5 {
			res.ErrorSample = append(res.ErrorSample, tally.firstErr)
		}
	}
	for k := range merged {
		res.Completed += merged[k].Completed
		res.Errors += merged[k].Errors
		if merged[k].Completed+merged[k].Errors > 0 {
			kr := merged[k]
			res.ByKind[workload.OpKind(k)] = &kr
		}
	}
	return res, nil
}
