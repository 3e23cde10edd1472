package recommend

import (
	"context"
	"fmt"
	"testing"
	"time"

	"agentrec/internal/ops"
	"agentrec/internal/profile"
)

// Event-plane producer tests: the engine and replicator hooks behind
// WithEventBus (an engine's and its replicator's) must publish faithful events for
// journal appends, served-top-N changes, compaction passes, and lag
// transitions — and publish nothing at all when nothing changed.

// drain reads every event already buffered on sub (Publish buffers
// synchronously, so after a quiesced call sequence this is deterministic).
func drain(t *testing.T, sub *ops.Subscription) []ops.Event {
	t.Helper()
	done, cancel := context.WithCancel(context.Background())
	cancel() // only read what is already buffered
	var out []ops.Event
	for {
		ev, err := sub.Next(done)
		if err != nil {
			return out
		}
		if ev.Kind == ops.KindDropped {
			t.Fatalf("subscription dropped %d events mid-test", ev.Dropped.DroppedEvents)
		}
		out = append(out, ev)
	}
}

func TestEventBusJournalEvents(t *testing.T) {
	bus := ops.NewBus()
	e := fixture(t, WithEventBus(bus, 3), WithJournalFeed(0))
	sub := bus.Subscribe(ops.SubscribeOptions{Kinds: []ops.Kind{ops.KindJournal}})

	p := profile.NewProfile("eve")
	if err := e.SetProfile(p); err != nil {
		t.Fatal(err)
	}
	if err := e.RecordPurchase("eve", "cam1"); err != nil {
		t.Fatal(err)
	}
	ev := profile.Evidence{Category: "camera", Terms: map[string]float64{"zoom": 1}, Behaviour: profile.BehaviourBuy}
	if err := e.Observe("eve", []profile.Evidence{ev}, []PurchasePair{{UserID: "eve", ProductID: "cam2"}}); err != nil {
		t.Fatal(err)
	}
	evs := drain(t, sub)
	if len(evs) != 3 {
		t.Fatalf("got %d journal events, want 3: %+v", len(evs), evs)
	}
	prof, buy, paper := evs[0].Journal, evs[1].Journal, evs[2].Journal
	if prof.Records != 1 || prof.Purchases != 0 || prof.PayloadBytes <= 0 {
		t.Errorf("profile event = %+v, want records=1 purchases=0 payload>0", prof)
	}
	if buy.Records != 1 || buy.Purchases != 1 {
		t.Errorf("purchase event = %+v, want records=1 purchases=1", buy)
	}
	// A buy with its evidence is one write that says it holds one purchase.
	if paper.Records != 2 || paper.Purchases != 1 || paper.PayloadBytes <= 0 {
		t.Errorf("buy-with-evidence event = %+v, want records=2 purchases=1 payload>0", paper)
	}
	wantShard := e.ShardOf("eve")
	for _, j := range []ops.JournalEvent{prof, buy, paper} {
		if j.Server != 3 || j.Shard != wantShard {
			t.Errorf("journal event = %+v, want server=3 shard=%d", j, wantShard)
		}
		if j.Seq == 0 {
			t.Errorf("journal event carries no shard seq: %+v", j)
		}
	}
	// Both writes hit eve's shard: the seqs must advance in write order.
	if buy.Seq <= prof.Seq {
		t.Errorf("purchase seq %d not after profile seq %d", buy.Seq, prof.Seq)
	}
}

func TestEventBusRecDelta(t *testing.T) {
	bus := ops.NewBus()
	e := fixture(t, WithEventBus(bus, 0))
	sub := bus.Subscribe(ops.SubscribeOptions{Kinds: []ops.Kind{ops.KindRecDelta}})

	recommend := func() {
		t.Helper()
		if _, err := e.Recommend(StrategyCF, "alice", "laptop", 5); err != nil {
			t.Fatal(err)
		}
	}
	recommend()
	first := drain(t, sub)
	if len(first) != 1 {
		t.Fatalf("first answer published %d deltas, want 1", len(first))
	}
	d := first[0].RecDelta
	if d.UserID != "alice" || d.Category != "laptop" || d.Strategy != "cf" {
		t.Errorf("delta identity = %+v", d)
	}
	if len(d.Top) == 0 || d.Top[0] != "lap2" || len(d.Entered) != len(d.Top) {
		t.Errorf("first delta top=%v entered=%v, want everything entered with lap2 on top", d.Top, d.Entered)
	}
	if d.LatencyMs < 0 {
		t.Errorf("latency_ms = %v", d.LatencyMs)
	}

	// Same answer again: no delta.
	recommend()
	if evs := drain(t, sub); len(evs) != 0 {
		t.Fatalf("unchanged answer republished %d deltas: %+v", len(evs), evs)
	}

	// bob (alice's neighbour) buys lap3: alice's CF answer gains it.
	if err := e.RecordPurchase("bob", "lap3"); err != nil {
		t.Fatal(err)
	}
	recommend()
	changed := drain(t, sub)
	if len(changed) != 1 {
		t.Fatalf("changed answer published %d deltas, want 1", len(changed))
	}
	d = changed[0].RecDelta
	entered := false
	for _, id := range d.Entered {
		entered = entered || id == "lap3"
	}
	if !entered {
		t.Errorf("delta after bob bought lap3: top=%v entered=%v exited=%v, want lap3 entered", d.Top, d.Entered, d.Exited)
	}
}

func TestEventBusCompactionEvent(t *testing.T) {
	bus := ops.NewBus()
	u, profiles := soakUniverse(t)
	e := loadEngineErr(t, u, profiles, WithPersistence(t.TempDir()), WithNeighbors(8),
		WithEventBus(bus, 1))
	defer e.Close()
	sub := bus.Subscribe(ops.SubscribeOptions{Kinds: []ops.Kind{ops.KindCompaction}})

	// Overwrite every profile once so the journal holds garbage to reclaim.
	if err := e.SetProfiles(profiles); err != nil {
		t.Fatal(err)
	}
	if err := e.CompactState(); err != nil {
		t.Fatal(err)
	}
	evs := drain(t, sub)
	if len(evs) != 1 {
		t.Fatalf("got %d compaction events, want 1", len(evs))
	}
	c := evs[0].Compaction
	if c.Server != 1 || c.Compactions != 1 {
		t.Errorf("compaction event = %+v, want server=1 compactions=1", c)
	}
	if c.JournalBytes <= 0 || c.ReclaimedBytes <= 0 {
		t.Errorf("compaction sizing = %+v, want positive journal_bytes and reclaimed_bytes", c)
	}
}

// trimmingPeer serves at most one journal record per tail request — the
// legitimate transport behaviour (a frame budget trims replies to a prefix)
// that leaves a follower observably behind the owner's head.
type trimmingPeer struct{ inner Peer }

func (p trimmingPeer) JournalTail(ctx context.Context, shard int, epoch, since uint64) (TailResult, error) {
	tr, err := p.inner.JournalTail(ctx, shard, epoch, since)
	if err == nil && len(tr.Records) > 1 {
		tr.Records = tr.Records[:1]
		tr.Seq = tr.Records[0].Seq
	}
	return tr, err
}

func (p trimmingPeer) SnapshotPage(ctx context.Context, shard int, epoch, seq uint64, token string) (SnapshotPage, error) {
	return p.inner.SnapshotPage(ctx, shard, epoch, seq, token)
}

func TestReplicationLagTransitionEvents(t *testing.T) {
	u, _ := soakUniverse(t)
	bus := ops.NewBus()
	sub := bus.Subscribe(ops.SubscribeOptions{Kinds: []ops.Kind{ops.KindLag}})
	newEngine := func(opts ...Option) *Engine {
		e, err := Open(u.Catalog, append([]Option{WithJournalFeed(0), WithShards(4)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	// The follower's replicator publishes on its engine's bus, as server 1.
	owner, follower := newEngine(), newEngine(WithEventBus(bus, 1))

	// A consumer whose shard server 0 owns (shard % 2 == 0).
	user := ""
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("consumer-%d", i)
		if owner.ShardOf(id)%2 == 0 {
			user = id
			break
		}
	}
	if user == "" {
		t.Fatal("no server-0-owned consumer found")
	}

	peers := []Peer{trimmingPeer{LocalPeer{Engine: owner}}, LocalPeer{Engine: follower}}
	repl, err := NewReplicator(follower, 1, peers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repl.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// First pass: epoch-zero cursors force snapshot catch-up of the (empty)
	// shards and pin the feed epoch; lag stays 0 -> 0, so no events yet.
	if err := repl.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if evs := drain(t, sub); len(evs) != 0 {
		t.Fatalf("bootstrap sync published %d lag events: %+v", len(evs), evs)
	}

	const writes = 5
	if err := owner.SetProfile(profile.NewProfile(user)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < writes-1; i++ {
		if err := owner.RecordPurchase(user, u.Products[i%len(u.Products)].ID); err != nil {
			t.Fatal(err)
		}
	}

	// Each pass now applies one trimmed record: the first pull discovers
	// the backlog (0 -> writes-1), each later pull shrinks it, the last one
	// reports the catch-up edge (1 -> 0).
	deadline := time.Now().Add(20 * time.Second)
	for done := false; !done; {
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up; stats %+v", repl.Stats())
		}
		if err := repl.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		done = repl.Stats().Lag() == 0
	}

	evs := drain(t, sub)
	if len(evs) < 2 {
		t.Fatalf("got %d lag events, want at least the fall-behind and catch-up edges: %+v", len(evs), evs)
	}
	firstLag, lastLag := evs[0].Lag, evs[len(evs)-1].Lag
	if firstLag.PrevLagRecords != 0 || firstLag.LagRecords == 0 {
		t.Errorf("first transition = %+v, want 0 -> N", firstLag)
	}
	if lastLag.LagRecords != 0 || lastLag.PrevLagRecords == 0 {
		t.Errorf("last transition = %+v, want N -> 0", lastLag)
	}
	prev := firstLag
	for _, ev := range evs[1:] {
		l := ev.Lag
		if l.Server != 1 || l.Shard != firstLag.Shard || l.Owner != 0 {
			t.Errorf("lag event identity = %+v", l)
		}
		if l.PrevLagRecords != prev.LagRecords {
			t.Errorf("transition chain broken: %+v after %+v", l, prev)
		}
		if l.LagRecords == prev.LagRecords {
			t.Errorf("non-transition published: %+v", l)
		}
		prev = l
	}
}
