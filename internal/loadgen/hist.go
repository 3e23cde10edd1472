// Package loadgen is the platform's production-shaped proof layer: an
// open-loop traffic driver that replays scenario-scripted mixes of
// Recommend / SetProfile / RecordPurchase against a real replicated
// multi-server deployment and records the latency/throughput trajectory as
// BENCH_<scenario>.json, so every future change shows its perf delta
// against a committed baseline instead of a microbenchmark.
//
// The pieces:
//
//   - Histogram (hist.go): HDR-style log-linear latency histogram with
//     coordinated-omission correction. Mergeable, fixed-size, allocation-
//     free on the record path.
//   - Drive (driver.go): the open-loop driver. Arrival times are fixed by
//     the scenario's constant rate before the run starts; latency is
//     measured from the *scheduled* start, so a stalled server inflates the
//     recorded tail instead of silently slowing the load (the
//     coordinated-omission trap closed-loop drivers fall into).
//   - Scenario (scenario.go): the scenario library, shipped as data. Each
//     scenario is a plain JSON-serializable struct; the built-in Library
//     covers flash-sale skew, cold-follower paged bootstrap under writes,
//     kill-the-owner failover, and profile-shilling poisoning.
//   - RunScenario (run.go): boots the in-process world (target.go: a
//     replica set of platform.Replica servers behind liveness gates), seeds
//     the universe, drives the load while firing the scenario's one
//     mid-run incident — a cold server's paged join or the owner kill
//     (failover.go) — if it has one, and assembles the ScenarioResult
//     document cmd/recbench writes.
package loadgen

import "math/bits"

// Histogram geometry: values are bucketed log-linearly — each power-of-two
// major bucket is split into histSubCount linear sub-buckets — so the
// relative quantile error is bounded by 1/histSubCount (~1.6%) while the
// whole int64 range fits in a fixed ~3.7k-bucket array. Values below
// histSubCount*2 are exact.
const (
	histSubBits  = 6
	histSubCount = 1 << histSubBits // 64 sub-buckets per power of two

	// Max index: for v up to 1<<62, shift = 62-histSubBits, so
	// (shift+1+1) majors of histSubCount buckets cover everything.
	histBuckets = (64 - histSubBits) * histSubCount
)

// Histogram is an HDR-style log-linear histogram of non-negative int64
// values (the driver records nanoseconds). The zero value is NOT ready;
// use NewHistogram. Not safe for concurrent use: the driver keeps one per
// worker and merges at the end.
type Histogram struct {
	counts [histBuckets]int64
	count  int64
	sum    int64
	min    int64
	max    int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: -1}
}

// histIndex maps a value to its bucket. Values < histSubCount*2 map
// exactly (one bucket per value); above that each doubling of magnitude
// shares histSubCount linear buckets.
func histIndex(v int64) int {
	if v < histSubCount {
		return int(v)
	}
	m := bits.Len64(uint64(v)) - 1 // m >= histSubBits
	shift := m - histSubBits
	sub := int(v >> uint(shift)) // in [histSubCount, 2*histSubCount)
	return (shift+1)*histSubCount + (sub - histSubCount)
}

// histHigh is the inclusive upper bound of bucket idx — what quantiles
// report, so estimates never understate the true value.
func histHigh(idx int) int64 {
	if idx < histSubCount {
		return int64(idx)
	}
	shift := idx/histSubCount - 1
	low := int64(histSubCount+idx%histSubCount) << uint(shift)
	return low + (int64(1) << uint(shift)) - 1
}

// Record adds one observation. Negative values clamp to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(v)]++
	h.count++
	h.sum += v
	if h.min < 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Merge adds o's observations into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	for i, c := range o.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	h.count += o.count
	h.sum += o.sum
	if h.min < 0 || (o.min >= 0 && o.min < h.min) {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// Count is the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count }

// Min is the smallest recorded value (exact), or 0 when empty.
func (h *Histogram) Min() int64 {
	if h.min < 0 {
		return 0
	}
	return h.min
}

// Max is the largest recorded value (exact), or 0 when empty.
func (h *Histogram) Max() int64 { return h.max }

// Mean is the exact arithmetic mean (the sum is tracked unbucketed), or 0
// when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]): the
// inclusive upper edge of the bucket holding the ceil(q*count)-th smallest
// observation. The estimate never understates the true quantile and
// overstates it by at most a factor of 1/64 (~1.6%); values below 128 are
// exact. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	rank := int64(q * float64(h.count))
	if float64(rank) < q*float64(h.count) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			hi := histHigh(i)
			if hi > h.max {
				// The top bucket's edge can run past the largest
				// observation; the max is exact, so clamp to it.
				hi = h.max
			}
			return hi
		}
	}
	return h.max
}
