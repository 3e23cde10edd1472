package ops

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func journalEvent(shard int, seq uint64) Event {
	return Event{Kind: KindJournal, Journal: JournalEvent{Shard: shard, Seq: seq}}
}

// TestBusDeliversInPublishOrder checks basic fan-out: every subscriber sees
// every matching event, in publish order, with strictly increasing seq.
func TestBusDeliversInPublishOrder(t *testing.T) {
	bus := NewBus()
	all := bus.Subscribe(SubscribeOptions{})
	lagOnly := bus.Subscribe(SubscribeOptions{Kinds: []Kind{KindLag}})

	bus.Publish(journalEvent(1, 1))
	bus.Publish(Event{Kind: KindLag, Lag: LagEvent{Shard: 3, LagRecords: 7}})
	bus.Publish(journalEvent(1, 2))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var kinds []Kind
	var lastSeq uint64
	for i := 0; i < 3; i++ {
		ev, err := all.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("seq not increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		kinds = append(kinds, ev.Kind)
	}
	want := []Kind{KindJournal, KindLag, KindJournal}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}

	ev, err := lagOnly.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != KindLag || ev.Lag.LagRecords != 7 {
		t.Fatalf("filtered subscriber got %+v", ev)
	}
}

// TestBusSlowSubscriberNeverBlocksAndDropsExactly floods a subscriber whose
// reader is asleep: every Publish must return immediately (the producer
// finishes while the reader still sleeps), the oldest events are dropped,
// the drop marker carries the exact count, and received + dropped equals
// published.
func TestBusSlowSubscriberNeverBlocksAndDropsExactly(t *testing.T) {
	const buffer, published = 8, 1000
	bus := newBus(0)
	sub := bus.subscribe(SubscribeOptions{}, buffer)

	for i := 0; i < published; i++ {
		if seq := bus.Publish(journalEvent(0, uint64(i+1))); seq == 0 {
			t.Fatal("publish on open bus returned 0")
		}
	}
	// The reader has not run at all: everything beyond the ring must have
	// been dropped already, writers having never waited.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	ev, err := sub.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != KindDropped {
		t.Fatalf("first event after overrun = %v, want drop marker", ev.Kind)
	}
	if got := ev.Dropped.DroppedEvents; got != published-buffer {
		t.Fatalf("drop marker = %d, want %d", got, published-buffer)
	}
	var received int
	for i := 0; i < buffer; i++ {
		ev, err := sub.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind == KindDropped {
			t.Fatalf("unexpected second drop marker after %d events", received)
		}
		received++
		wantSeq := uint64(published - buffer + i + 1)
		if ev.Seq != wantSeq {
			t.Fatalf("post-gap event %d has seq %d, want %d", i, ev.Seq, wantSeq)
		}
	}
	if got := sub.Dropped() + uint64(received); got != published {
		t.Fatalf("received %d + dropped %d != published %d", received, sub.Dropped(), published)
	}
}

// TestBusConcurrentSoak is the -race soak: several producers publish
// concurrently against one slow subscriber and one fast subscriber. Writers
// must never block (the run is time-bounded), per-subscriber seq must be
// strictly increasing with drops exactly accounting for every gap, and
// delivered + dropped must equal published for both consumers.
func TestBusConcurrentSoak(t *testing.T) {
	const producers = 8
	const perProducer = 2000
	const total = producers * perProducer

	bus := newBus(0)
	fast := bus.subscribe(SubscribeOptions{}, total) // never drops
	slow := bus.subscribe(SubscribeOptions{}, 16)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Slow consumer: reads with a delay, verifying gap accounting inline.
	var slowSeen, slowGaps atomic.Uint64
	slowDone := make(chan error, 1)
	go func() {
		var last uint64
		for {
			ev, err := slow.Next(ctx)
			if err != nil {
				slowDone <- err
				return
			}
			if ev.Kind == KindDropped {
				slowGaps.Add(ev.Dropped.DroppedEvents)
				continue
			}
			if ev.Seq <= last {
				t.Errorf("slow subscriber: seq %d after %d", ev.Seq, last)
			}
			// The events between last and ev.Seq must all be accounted as
			// drops by the time we see the post-gap event.
			last = ev.Seq
			if slowSeen.Add(1) == 0 {
				return
			}
			if slowSeen.Load()+slowGaps.Load() == total && ev.Seq == total {
				slowDone <- nil
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				bus.Publish(journalEvent(p, uint64(i+1)))
			}
		}(p)
	}
	wg.Wait()
	elapsed := time.Since(start)
	// Never-blocks, operationally: 16k publishes against a sleeping
	// consumer complete far inside the soak budget. A writer that waited
	// on the slow consumer even once per ring-full would blow this.
	if elapsed > 10*time.Second {
		t.Fatalf("publishing %d events took %v — writers blocked on a slow consumer", total, elapsed)
	}

	// Fast subscriber sees everything, in order, with zero drops.
	var last uint64
	for i := 0; i < total; i++ {
		ev, err := fast.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind == KindDropped {
			t.Fatal("fast subscriber dropped events despite a full-size buffer")
		}
		if ev.Seq != last+1 {
			t.Fatalf("fast subscriber: seq %d after %d (gap)", ev.Seq, last)
		}
		last = ev.Seq
	}
	if fast.Dropped() != 0 {
		t.Fatalf("fast subscriber dropped %d", fast.Dropped())
	}

	if err := <-slowDone; err != nil {
		t.Fatalf("slow subscriber: %v", err)
	}
	if got := slowSeen.Load() + slowGaps.Load(); got != total {
		t.Fatalf("slow subscriber: seen %d + gap-accounted %d != published %d",
			slowSeen.Load(), slowGaps.Load(), total)
	}
	if slow.Dropped() != slowGaps.Load() {
		t.Fatalf("Dropped() = %d, gap markers accounted %d", slow.Dropped(), slowGaps.Load())
	}
}

// TestBusResume covers the Last-Event-ID contract: a subscriber resuming
// within the replay retention gets exactly the missed events (no gap, no
// duplicate); one resuming past retention gets an exact drop marker first.
func TestBusResume(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	bus := newBus(4)
	for i := 1; i <= 10; i++ {
		bus.Publish(journalEvent(0, uint64(i)))
	}
	// Retained: seqs 7..10. Resume from 8 → replay 9, 10, no marker.
	sub := bus.Subscribe(SubscribeOptions{Resume: true, AfterSeq: 8})
	for _, want := range []uint64{9, 10} {
		ev, err := sub.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind == KindDropped || ev.Seq != want {
			t.Fatalf("resumed event = kind %v seq %d, want seq %d", ev.Kind, ev.Seq, want)
		}
	}
	// And the resumed subscription is live for new events.
	bus.Publish(journalEvent(0, 11))
	if ev, err := sub.Next(ctx); err != nil || ev.Seq != 11 {
		t.Fatalf("post-resume live event = %+v, %v", ev, err)
	}

	// Resume from 2: seqs 3..6 are pruned (exactly 4 dropped), 7..10 replay.
	stale := bus.Subscribe(SubscribeOptions{Resume: true, AfterSeq: 2})
	ev, err := stale.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != KindDropped || ev.Dropped.DroppedEvents != 5 {
		// After the 11th publish the ring holds 8..11, so 3..7 are gone.
		t.Fatalf("stale resume marker = %+v, want 5 dropped", ev)
	}
	for _, want := range []uint64{8, 9, 10, 11} {
		ev, err := stale.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Seq != want {
			t.Fatalf("stale resume replay seq = %d, want %d", ev.Seq, want)
		}
	}
}

// TestBusCloseDrainsSubscribers: closing the bus lets readers drain what is
// buffered, then reports ErrSubscriptionClosed.
func TestBusCloseDrainsSubscribers(t *testing.T) {
	bus := NewBus()
	sub := bus.Subscribe(SubscribeOptions{})
	bus.Publish(journalEvent(0, 1))
	bus.Close()
	if seq := bus.Publish(journalEvent(0, 2)); seq != 0 {
		t.Fatalf("publish after close returned seq %d", seq)
	}
	ctx := context.Background()
	if ev, err := sub.Next(ctx); err != nil || ev.Seq != 1 {
		t.Fatalf("drain after close = %+v, %v", ev, err)
	}
	if _, err := sub.Next(ctx); err != ErrSubscriptionClosed {
		t.Fatalf("err = %v, want ErrSubscriptionClosed", err)
	}
}

// TestEventJSONCarriesOnlyItsPayload pins the wire shape: an event encodes
// its own payload under the kind's field and omits every other payload, and
// the agent-first field names are on the wire.
func TestEventJSONCarriesOnlyItsPayload(t *testing.T) {
	data, err := json.Marshal(Event{
		Seq: 9, Kind: KindLag, AtEpochMs: 1700000000000,
		Lag: LagEvent{Server: 1, Shard: 3, Owner: 0, LagRecords: 12, PrevLagRecords: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"kind":"lag"`, `"lag_records":12`, `"at_epoch_ms":1700000000000`} {
		if !strings.Contains(s, want) {
			t.Errorf("encoded lag event %s missing %s", s, want)
		}
	}
	for _, absent := range []string{"journal", "compaction", "rec_delta", "snapshot", "dropped"} {
		if strings.Contains(s, `"`+absent+`"`) {
			t.Errorf("encoded lag event carries foreign payload %q: %s", absent, s)
		}
	}
}

// TestEventBusPublishZeroAlloc is the mechanical-sympathy gate for the
// publish hot path, in the style of TestTopKStreamZeroAlloc: Publish must
// not allocate per event, with subscribers attached and dropping.
func TestEventBusPublishZeroAlloc(t *testing.T) {
	bus := NewBus()
	bus.subscribe(SubscribeOptions{}, 64)                       // drops under flood
	bus.subscribe(SubscribeOptions{Kinds: []Kind{KindLag}}, 64) // filters everything out
	ev := journalEvent(3, 1)
	allocs := testing.AllocsPerRun(1000, func() {
		bus.Publish(ev)
	})
	if allocs > 0 {
		t.Fatalf("Publish allocates %.1f times per event, want 0", allocs)
	}
}

// BenchmarkEventBusPublish measures the publish hot path with a dropping
// subscriber attached — the cost an engine write pays per emitted event.
// Gated in CI's bench smoke alongside Recommend/Replicat/Compact.
func BenchmarkEventBusPublish(b *testing.B) {
	bus := NewBus()
	bus.subscribe(SubscribeOptions{}, 1024)
	ev := journalEvent(1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Publish(ev)
	}
}

// BenchmarkEventBusPublishParallel is the contended shape: every engine
// shard publishing at once.
func BenchmarkEventBusPublishParallel(b *testing.B) {
	bus := NewBus()
	bus.subscribe(SubscribeOptions{}, 1024)
	ev := journalEvent(1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			bus.Publish(ev)
		}
	})
}
