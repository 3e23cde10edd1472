package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// Tracing from outside the program. Nothing under internal/ records a
// span yet, so the traced run replays each op down a ladder of exported
// entry points — the call the user makes, then the calls that one makes,
// each timed on its own — and records a span around every rung. Parent is
// the rung above, so a layer's self time is its span's duration minus the
// durations of the spans that name it as parent. Spans stay in memory and
// are written out when the workload ends.

type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // span id, -1 for a root
	Op     uint64 `json:"op"`     // schedule index shared by one op's spans
}

type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	count map[string]int // spans recorded, by name
}

func newTracer() *tracer { return &tracer{t0: time.Now(), count: make(map[string]int)} }

// seen reports whether at least n spans of every name were recorded.
func (t *tracer) seen(n int, names ...string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, name := range names {
		if t.count[name] < n {
			return false
		}
	}
	return true
}

// firstError keeps the first error of a ladder's rungs.
type firstError struct{ err error }

func (f *firstError) keep(err error) {
	if f.err == nil {
		f.err = err
	}
}

// noParent marks a span that heads a ladder, or stands beside one.
const noParent = -1

// do times f as one span and returns its id for the rungs below it.
func (t *tracer) do(name string, parent int, op uint64, f func()) int {
	start := time.Since(t.t0)
	f()
	end := time.Since(t.t0)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: int64(start), End: int64(end), Parent: parent, Op: op})
	t.count[name]++
	t.mu.Unlock()
	return id
}

// self returns every span's self time in ns, indexed like t.spans: its
// duration minus its children's. The caller holds t.mu.
func (t *tracer) self() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent != noParent {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// selfTimes returns, per span name, every span's self time in ns.
func (t *tracer) selfTimes() map[string][]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := t.self()
	out := make(map[string][]int64)
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], max(self[i], 0))
	}
	return out
}

// durations returns every span's full duration in ns, per span name.
func (t *tracer) durations() map[string][]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string][]int64)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s.End-s.Start)
	}
	return out
}

// emit sets every per-layer time metric whose name is a span name plus
// its unit (recommend.cf_us from spans named recommend.cf) to the median
// self time of those spans.
func (t *tracer) emit(r *report) {
	self := t.selfTimes()
	for _, m := range r.cat.PerLayer {
		name := strings.TrimSuffix(m.Name, "_"+m.Unit)
		if xs := self[name]; name != m.Name && len(xs) > 0 {
			r.setTime(m.Name, xs, 0.5)
		}
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// attributionGap compares, for the ops keep admits, the sum over the
// ladder's rungs of their median self times with the median duration of
// the root rung. The medians come from different spans, so the two agree
// only if the rungs really partition the root's time; the gap is their
// relative difference.
func (t *tracer) attributionGap(root string, keep func(op uint64) bool) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := t.self()
	rootOf := make([]int, len(t.spans)) // a span is appended after its parent
	for i, s := range t.spans {
		rootOf[i] = i
		if s.Parent != noParent {
			rootOf[i] = rootOf[s.Parent]
		}
	}
	byName := make(map[string][]int64)
	var whole []int64
	for i, s := range t.spans {
		if t.spans[rootOf[i]].Name != root || !keep(s.Op) {
			continue
		}
		byName[s.Name] = append(byName[s.Name], self[i])
		if rootOf[i] == i {
			whole = append(whole, s.End-s.Start)
		}
	}
	sum := 0.0
	for _, xs := range byName {
		sum += median(xs)
	}
	total := median(whole)
	if total == 0 {
		return 1
	}
	return (sum - total) / total
}
