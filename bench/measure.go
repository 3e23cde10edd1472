package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"agentrec/internal/loadgen"
	"agentrec/internal/workload"
)

// Quantiles are taken from the raw sorted samples, not from
// loadgen.Histogram: its buckets are 1.6 % wide and report their upper
// edge, so two runs of a steady op print the identical median, which the
// benchmark contract reads as a number that was never measured. Drive's
// own tally is still used, to cross-check the counts.

// quantile returns the q-quantile of xs in place-sorted order (nearest
// rank), or 0 when xs is empty.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return float64(xs[min(max(i, 0), len(xs)-1)])
}

func median(xs []int64) float64 { return quantile(xs, 0.5) }

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return xs[(len(xs)-1)/2]
}

const nsPerMs = 1e6

// phase is what one closed or open loop measured.
type phase struct {
	attempted, failed int64
	lat               [numClasses][]int64 // ns per successful op, by class: at the reference speed in a closed loop, from the scheduled send in an open loop
	late              []int64             // open loop only: actual send - scheduled send, ns
	busy              int64               // closed loop only: the callers' ns inside ops, at the reference speed
	callers           int                 // closed loop only
	kernel            []int64             // closed loop only: ns each run of the reference kernel took
	firstErr          error
}

// throughput is completions per second of the callers' time inside ops,
// at the reference speed: what that many callers complete when they do
// nothing but wait for the platform.
func (p *phase) throughput() float64 {
	return float64(p.attempted-p.failed) * float64(p.callers) / (float64(p.busy) / 1e9)
}

// The reference kernel. This benchmark runs on a few cores of a shared
// host whose speed moves by a quarter to a half from one minute to the
// next: the platform's ops and any fixed loop slow down together, and no
// quantile of a run's samples removes a drift that outlasts the run. So a
// closed loop keeps a clock of the box's own speed beside the ops: a fixed
// piece of this program's own work, which no change to the platform can
// touch, run after an op whenever refEvery has passed since its last run.
// An op's time is then reported at the reference speed: multiplied by
// refNominalNs over the median of the kernel runs around it.
//
// The kernel is the two things the platform's hot paths are made of, four
// parts to one in time: dot products at scattered offsets of 1 MiB of
// floats, which slow down with the core, and look-ups of scattered string
// keys in a map with a small allocation every eighth, which slow down with
// the memory system — up to three times under a neighbour that the
// floats hardly feel. The split was chosen on ten seeds of every workload
// taken while the box moved between its states: of the splits tried, 4:1
// left the smallest worst quartile spread over all gated timings, 8 %,
// where the unscaled times spread by 17 to 35 % and floats alone or an
// even split left 16 % and 13 %.
const (
	refNominalNs = 400e3                // what one kernel run is taken to cost
	refEvery     = 2 * time.Millisecond // at most one run per this much of a caller's time
	refWindow    = 20                   // kernel runs on either side of an op whose median is the box's speed there
	refDots      = 256                  // dot products of 1 024 floats per run
	refLookups   = 660                  // map look-ups per run
)

var (
	refFloats = func() []float64 {
		a := make([]float64, 1<<17)
		for i := range a {
			a[i] = float64(i%977) * 0.001
		}
		return a
	}()
	refKeys = func() []string {
		keys := make([]string, 1<<14)
		for i := range keys {
			keys[i] = fmt.Sprintf("term-%06d-%d", i*7919%100003, i)
		}
		return keys
	}()
	refTerms = func() map[string]int32 {
		m := make(map[string]int32, len(refKeys))
		for i, k := range refKeys {
			m[k] = int32(i)
		}
		return m
	}()
)

// boxClock is one caller's record of the box's speed.
type boxClock struct {
	runs []int64 // ns per kernel run
	last time.Time
	off  int
	sink float64
}

// tick runs the kernel if refEvery has passed since its last run.
func (b *boxClock) tick(now time.Time) {
	if now.Sub(b.last) < refEvery {
		return
	}
	off, sum := b.off, 0.0
	for range refDots {
		off = (off*1103515245 + 12345) & (1<<17 - 1024 - 1)
		x := refFloats[off : off+1024]
		o := (off * 7) & (1<<16 - 1)
		y := refFloats[o : o+1024]
		for i := range x {
			sum += x[i] * y[i]
		}
	}
	var kept [][]int32
	for i := range refLookups {
		off = (off*1103515245 + 12345) & (len(refKeys) - 1)
		sum += float64(refTerms[refKeys[off]])
		if i%8 == 0 {
			kept = append(kept, make([]int32, 16))
		}
	}
	b.off, b.sink = off, b.sink+sum+float64(len(kept))
	b.last = time.Now()
	b.runs = append(b.runs, int64(b.last.Sub(now)))
}

// scales returns, for k = 0 .. len(runs), the factor that brings a time
// measured between kernel runs k-1 and k to the reference speed.
func (b *boxClock) scales() []float64 {
	out := make([]float64, len(b.runs)+1)
	for k := range out {
		near := slices.Clone(b.runs[max(k-refWindow, 0):min(k+refWindow, len(b.runs))])
		out[k] = 1
		if len(near) > 0 {
			out[k] = refNominalNs / median(near)
		}
	}
	return out
}

// boxWatch reads the box's speed beside work this program cannot put
// kernel runs into: a goroutine of its own runs the kernel, then sleeps
// refWatchEvery, until it is stopped.
type boxWatch struct {
	clock boxClock
	quit  chan struct{}
	done  chan struct{}
}

const refWatchEvery = 5 * time.Millisecond

func watchBox() *boxWatch {
	w := &boxWatch{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for {
			w.clock.tick(time.Now())
			select {
			case <-w.quit:
				return
			case <-time.After(refWatchEvery):
			}
		}
	}()
	return w
}

// stop ends the watch and returns the factor that brings a time measured
// beside it to the reference speed.
func (w *boxWatch) stop() float64 {
	close(w.quit)
	<-w.done
	return refNominalNs / median(w.clock.runs)
}

// doFunc executes op i and says what it measured. It is called from
// every worker at once.
type doFunc func(i uint64) (class, error)

// closedLoop runs workers callers for d: caller w issues ops base+w,
// base+w+W, ... and sends the next only when the previous one returned,
// so latency is service time and the completion rate is the capacity at
// that many callers. Times are reported at the reference speed.
func closedLoop(workers int, d time.Duration, base uint64, do doFunc) *phase {
	deadline := time.Now().Add(d)
	return callers(workers, base, do, true, func(uint64) bool { return time.Now().Before(deadline) })
}

// closedOps is closedLoop over exactly ops base .. base+n-1: the same work
// on every run, whatever the box's speed. Its times are not reported, so
// it keeps no clock.
func closedOps(workers int, n, base uint64, do doFunc) *phase {
	return callers(workers, base, do, false, func(i uint64) bool { return i < base+n })
}

// timedOps is closedLoop over exactly ops base .. base+n-1, for a workload
// whose ops cost more the more of them have been done: every run then
// walks the same stretch of that curve.
func timedOps(workers int, n, base uint64, do doFunc) *phase {
	return callers(workers, base, do, true, func(i uint64) bool { return i < base+n })
}

func callers(workers int, base uint64, do doFunc, clocked bool, more func(i uint64) bool) *phase {
	type sample struct {
		c  class
		ns int64
		k  int // kernel runs before it
	}
	type caller struct {
		phase
		clock   boxClock
		samples []sample
	}
	parts := make([]caller, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(p *caller) {
			defer wg.Done()
			for i := base + uint64(w); more(i); i += uint64(workers) {
				t0 := time.Now()
				c, err := do(i)
				t1 := time.Now()
				p.attempted++
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
					continue
				}
				p.samples = append(p.samples, sample{c, int64(t1.Sub(t0)), len(p.clock.runs)})
				if clocked {
					p.clock.tick(t1)
				}
			}
		}(&parts[w])
	}
	wg.Wait()
	out := &phase{callers: workers}
	for i := range parts {
		o := &parts[i]
		out.attempted += o.attempted
		out.failed += o.failed
		scale := o.clock.scales()
		for _, s := range o.samples {
			ns := int64(float64(s.ns) * scale[s.k])
			out.lat[s.c] = append(out.lat[s.c], ns)
			out.busy += ns
		}
		out.kernel = append(out.kernel, o.clock.runs...)
		if out.firstErr == nil {
			out.firstErr = o.firstErr
		}
	}
	return out
}

// openLoop offers ops base, base+1, ... at a fixed rate for d through
// loadgen.Drive and times each from its scheduled send. Drive hands its
// target nothing but the Op, so the op's index rides in TopN — no write
// reads it and every read asks for the workload's one fixed top-N, which
// do substitutes. Each op writes only its own slot of the result arrays.
func openLoop(ctx context.Context, workers int, rate float64, d time.Duration, base uint64, do doFunc) (*phase, error) {
	n := max(int(rate*d.Seconds()), 1)
	type slot struct {
		lat, late int64
		c         class
		err       error
	}
	slots := make([]slot, n)
	var start time.Time
	next := func(i uint64) workload.Op { return workload.Op{TopN: int(i)} }
	target := loadgen.TargetFunc(func(_ context.Context, op workload.Op) error {
		i := op.TopN
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		s := &slots[i]
		s.late = int64(time.Since(due))
		s.c, s.err = do(base + uint64(i))
		s.lat = int64(time.Since(due))
		return s.err
	})
	start = time.Now()
	res, err := loadgen.Drive(ctx, loadgen.DriveConfig{Rate: rate, Duration: d, Workers: workers}, next, target)
	if err != nil {
		return nil, err
	}
	out := &phase{attempted: res.Attempted, failed: res.Errors}
	for i := range slots {
		s := &slots[i]
		if s.err != nil {
			if out.firstErr == nil {
				out.firstErr = s.err
			}
			continue
		}
		out.lat[s.c] = append(out.lat[s.c], s.lat)
		out.late = append(out.late, s.late)
	}
	if got := int64(len(out.late)); got != res.Completed {
		return nil, fmt.Errorf("bench: open loop recorded %d ops, Drive completed %d", got, res.Completed)
	}
	return out, nil
}

// liveHeap is HeapAlloc after two forced collections, in bytes: the
// second empties the sync.Pools the first only retired.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
