// Package trace records step-numbered workflow events so that the agent
// workflows of the paper (Figs 4.1, 4.2 and 4.3) can be checked for exact
// conformance: every numbered arrow in a figure becomes one Event, and tests
// assert that the recorded sequence matches the figure.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Event is one numbered arrow in a workflow figure: actor From performs
// Action toward actor To as step Step of workflow Workflow.
type Event struct {
	Workflow string    // e.g. "query" (Fig 4.2), "buy" (Fig 4.3), "creation" (Fig 4.1)
	Step     int       // the figure's arrow number, 1-based
	From     string    // acting component, e.g. "Buyer", "HttpA", "BRA", "MBA"
	To       string    // receiving component, e.g. "BSMA", "UserDB", "Marketplace"
	Action   string    // short verb phrase, e.g. "query request"
	At       time.Time // wall-clock time the event was recorded
	Seq      uint64    // global record order, assigned by the Recorder
}

// String renders the event in the compact "workflow[step] from->to: action"
// form used by failure messages and the platformd -trace flag.
func (e Event) String() string {
	return fmt.Sprintf("%s[%d] %s->%s: %s", e.Workflow, e.Step, e.From, e.To, e.Action)
}

// Recorder collects events from concurrently running agents. The zero value
// is ready to use. A nil *Recorder is valid everywhere and records nothing,
// so components can carry an optional tracer without nil checks.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	seq    uint64
	clock  func() time.Time
}

// New returns an empty Recorder.
func New() *Recorder { return &Recorder{} }

// SetClock replaces the wall clock, for deterministic tests. A nil clock
// restores time.Now.
func (r *Recorder) SetClock(clock func() time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clock = clock
}

// Record appends one event. It is safe for concurrent use and is a no-op on
// a nil Recorder.
func (r *Recorder) Record(workflow string, step int, from, to, action string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now
	if r.clock != nil {
		now = r.clock
	}
	r.seq++
	r.events = append(r.events, Event{
		Workflow: workflow,
		Step:     step,
		From:     from,
		To:       to,
		Action:   action,
		At:       now(),
		Seq:      r.seq,
	})
}

// Events returns a copy of every recorded event in record order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Drain returns every recorded event in record order and forgets them, so a
// long-running consumer tails the recorder in bounded memory. Unlike Reset
// it leaves the Seq counter running.
func (r *Recorder) Drain() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.events
	r.events = nil
	return out
}

// Workflow returns the events of one workflow, ordered by step number and,
// within a step, by record order. Workflows driven by concurrent agents may
// record steps slightly out of arrival order; ordering by the figure's step
// number is what conformance checks care about.
func (r *Recorder) Workflow(name string) []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.Workflow == name {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Step != out[j].Step {
			return out[i].Step < out[j].Step
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Reset discards all recorded events.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = nil
	r.seq = 0
}

// Len reports the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Transcript renders the events of one workflow, one per line, in step order.
func (r *Recorder) Transcript(workflow string) string {
	var b strings.Builder
	for _, e := range r.Workflow(workflow) {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Expectation is one required step of a workflow figure.
type Expectation struct {
	Step int
	From string
	To   string
}

// Verify checks that workflow's recorded events contain exactly the expected
// step sequence: every expected step present, with matching From/To actors,
// steps strictly covering 1..len(expected) with no gaps, duplicates allowed
// only when the figure itself repeats a step number (same step listed twice).
// It returns a descriptive error naming the first mismatch.
func (r *Recorder) Verify(workflow string, expected []Expectation) error {
	got := r.Workflow(workflow)
	if len(got) != len(expected) {
		return fmt.Errorf("trace: workflow %q recorded %d events, figure has %d:\n%s",
			workflow, len(got), len(expected), r.Transcript(workflow))
	}
	for i, want := range expected {
		e := got[i]
		if e.Step != want.Step || e.From != want.From || e.To != want.To {
			return fmt.Errorf("trace: workflow %q event %d = %s, want step %d %s->%s",
				workflow, i, e, want.Step, want.From, want.To)
		}
	}
	return nil
}
