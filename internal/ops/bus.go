package ops

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Bus is a bounded fan-out event bus. One bus serves a whole process: every
// producer publishes into it and every consumer — in-process subscribers
// and the wire endpoints — reads from it through a Subscription.
//
// The contract producers rely on:
//
//   - Publish never blocks on a consumer. Each subscription owns a fixed
//     ring buffer; when a slow consumer's ring is full the OLDEST buffered
//     event is dropped (and counted), never the writer's time.
//   - Publish allocates nothing per event: the event value is copied into
//     preallocated rings (TestEventBusPublishZeroAlloc gates this).
//   - Drops are exact and visible: a subscription's reader receives a
//     synthetic KindDropped marker at the gap's position carrying exactly
//     how many events it lost, and Dropped() totals them.
//
// The bus additionally retains a bounded replay ring of recent events so a
// wire consumer that disconnects can resume with its last seen Seq
// (SubscribeOptions.AfterSeq): events still retained are replayed with no
// gap or duplicate; events already pruned are accounted as an exact drop
// marker at the head of the resumed stream.
type Bus struct {
	mu     sync.Mutex
	seq    uint64
	replay []Event // ring of the most recent events, for resume
	rhead  int     // index of the oldest retained event
	rlen   int
	subs   []*Subscription
	closed bool
}

// defaultReplay is how many recent events a Bus retains for resume.
const defaultReplay = 1024

// defaultSubscriberBuffer is a Subscription's ring capacity.
const defaultSubscriberBuffer = 256

// NewBus returns a bus that retains the last defaultReplay events for
// resume.
func NewBus() *Bus { return newBus(defaultReplay) }

// newBus returns a bus whose resume ring holds replay events; zero
// disables resume entirely.
func newBus(replay int) *Bus { return &Bus{replay: make([]Event, replay)} }

// Publish assigns ev the next sequence number and timestamp (unless the
// producer stamped one) and fans it out. It never blocks on subscribers and
// allocates nothing; publishing to a closed bus is a no-op. Returns the
// assigned sequence number (0 when closed).
func (b *Bus) Publish(ev Event) uint64 {
	now := time.Now().UnixMilli()
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return 0
	}
	b.seq++
	ev.Seq = b.seq
	if ev.AtEpochMs == 0 {
		ev.AtEpochMs = now
	}
	if n := len(b.replay); n > 0 {
		if b.rlen == n {
			b.rhead = (b.rhead + 1) % n
			b.rlen--
		}
		b.replay[(b.rhead+b.rlen)%n] = ev
		b.rlen++
	}
	for _, s := range b.subs {
		s.offer(ev)
	}
	seq := ev.Seq
	b.mu.Unlock()
	return seq
}

// SubscribeOptions configures a Subscription.
type SubscribeOptions struct {
	// Kinds restricts delivery to the listed kinds; empty means all.
	// Synthetic drop markers are always delivered.
	Kinds []Kind
	// Resume replays retained events with Seq > AfterSeq before going
	// live. Events already pruned from the replay ring are surfaced as
	// one exact drop marker at the head of the stream.
	Resume   bool
	AfterSeq uint64
}

// Subscribe registers a new subscription whose ring holds
// defaultSubscriberBuffer events. On a closed bus the subscription is
// returned already closed (Next reports ErrSubscriptionClosed).
func (b *Bus) Subscribe(opt SubscribeOptions) *Subscription {
	return b.subscribe(opt, defaultSubscriberBuffer)
}

// subscribe is Subscribe with a ring of buf events.
func (b *Bus) subscribe(opt SubscribeOptions, buf int) *Subscription {
	s := &Subscription{
		bus:    b,
		ring:   make([]Event, buf),
		notify: make(chan struct{}, 1),
	}
	if len(opt.Kinds) > 0 {
		s.kinds = make(map[Kind]bool, len(opt.Kinds))
		for _, k := range opt.Kinds {
			s.kinds[k] = true
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		s.closed = true
		return s
	}
	if opt.Resume && b.seq > opt.AfterSeq {
		// oldest is the seq of the oldest retained event; everything in
		// (AfterSeq, oldest) is gone and must be accounted as dropped.
		oldest := b.seq + 1 // empty ring: nothing is retained
		if b.rlen > 0 {
			oldest = b.seq - uint64(b.rlen) + 1
		}
		if opt.AfterSeq+1 < oldest {
			gap := oldest - opt.AfterSeq - 1
			s.pendingDrops += gap
			s.dropped += gap
		}
		for i := 0; i < b.rlen; i++ {
			ev := b.replay[(b.rhead+i)%len(b.replay)]
			if ev.Seq > opt.AfterSeq {
				s.offer(ev)
			}
		}
	}
	b.subs = append(b.subs, s)
	return s
}

// DefaultHeartbeatInterval is Heartbeat's period when given none.
const DefaultHeartbeatInterval = 5 * time.Second

// Heartbeat publishes snap() as a KindSnapshot event every interval
// (DefaultHeartbeatInterval when <= 0) until ctx is cancelled. It is the
// one snapshot ticker: the in-process platform and the daemon both run it
// with their own snapshot func.
func (b *Bus) Heartbeat(ctx context.Context, interval time.Duration, snap func() Snapshot) {
	if interval <= 0 {
		interval = DefaultHeartbeatInterval
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		s := snap()
		b.Publish(Event{Kind: KindSnapshot, AtEpochMs: s.AtEpochMs, Snapshot: &s})
	}
}

// Close shuts the bus down: further publishes are dropped and every
// subscription is closed (readers drain what is buffered, then see
// ErrSubscriptionClosed).
func (b *Bus) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	subs := b.subs
	b.subs = nil
	b.mu.Unlock()
	for _, s := range subs {
		s.markClosed()
	}
}

func (b *Bus) unsubscribe(target *Subscription) {
	b.mu.Lock()
	for i, s := range b.subs {
		if s == target {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			break
		}
	}
	b.mu.Unlock()
}

// ErrSubscriptionClosed is returned by Next once a closed subscription has
// drained its buffer.
var ErrSubscriptionClosed = errors.New("ops: subscription closed")

// Subscription is one consumer's bounded view of the bus. Next is the read
// side; it is safe for one reader goroutine (the usual shape: one
// subscription per consumer connection).
type Subscription struct {
	bus   *Bus
	kinds map[Kind]bool // nil = all kinds

	mu           sync.Mutex
	ring         []Event
	head, n      int
	pendingDrops uint64 // drops not yet surfaced as a marker
	dropped      uint64 // lifetime drops, for accounting
	closed       bool
	notify       chan struct{}
}

// offer enqueues ev, dropping the oldest buffered event when full. Called
// with the bus lock held, so enqueue order matches publish order.
func (s *Subscription) offer(ev Event) {
	if s.kinds != nil && !s.kinds[ev.Kind] {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.n == len(s.ring) {
		s.head = (s.head + 1) % len(s.ring)
		s.n--
		s.pendingDrops++
		s.dropped++
	}
	s.ring[(s.head+s.n)%len(s.ring)] = ev
	s.n++
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Next blocks until an event is available, the subscription closes
// (ErrSubscriptionClosed after the buffer drains), or ctx is done. When the
// ring dropped events, a synthetic KindDropped marker carrying the exact
// count is delivered at the gap's position, before the first event that
// survived it.
func (s *Subscription) Next(ctx context.Context) (Event, error) {
	for {
		s.mu.Lock()
		if s.pendingDrops > 0 {
			n := s.pendingDrops
			s.pendingDrops = 0
			s.mu.Unlock()
			return Event{
				Kind:      KindDropped,
				AtEpochMs: time.Now().UnixMilli(),
				Dropped:   Drop{DroppedEvents: n},
			}, nil
		}
		if s.n > 0 {
			ev := s.ring[s.head]
			s.ring[s.head] = Event{}
			s.head = (s.head + 1) % len(s.ring)
			s.n--
			s.mu.Unlock()
			return ev, nil
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return Event{}, ErrSubscriptionClosed
		}
		select {
		case <-ctx.Done():
			return Event{}, ctx.Err()
		case <-s.notify:
		}
	}
}

// Dropped returns how many events this subscription has lost in total —
// ring overruns plus any resume gap past the replay retention.
func (s *Subscription) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close detaches the subscription from the bus. Buffered events remain
// readable; after they drain Next reports ErrSubscriptionClosed. Idempotent.
func (s *Subscription) Close() {
	s.bus.unsubscribe(s)
	s.markClosed()
}

func (s *Subscription) markClosed() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}
