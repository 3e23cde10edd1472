package coordinator

import (
	"context"
	"errors"
	"testing"
	"time"

	"agentrec/internal/ops"
	"agentrec/internal/recommend"
)

// fakeClock drives the authority's time by hand.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func newTestAuthority(t *testing.T, shards, servers int, clk *fakeClock, publish func(ops.Event)) *Authority {
	t.Helper()
	a, err := NewOwnershipAuthority(OwnershipConfig{
		Shards: shards, Servers: servers,
		LeaseTTL: 3 * time.Second,
		Publish:  publish,
		now:      clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func renewAll(t *testing.T, a *Authority, servers int, applied func(i int) []uint64) {
	t.Helper()
	for i := 0; i < servers; i++ {
		var ev []uint64
		if applied != nil {
			ev = applied(i)
		}
		if _, err := a.Renew(i, ev); err != nil {
			t.Fatalf("renew %d: %v", i, err)
		}
	}
}

func TestAuthorityFailoverPromotesMostCaughtUp(t *testing.T) {
	clk := newFakeClock()
	var events []ops.Event
	a := newTestAuthority(t, 6, 3, clk, func(ev ops.Event) { events = append(events, ev) })

	// Everyone alive: server 0 owns shards 0,3 at head 10; server 1's
	// replica is at 10 (caught up), server 2's at 7 (behind).
	applied := func(i int) []uint64 {
		switch i {
		case 0:
			return []uint64{10, 0, 0, 10, 0, 0}
		case 1:
			return []uint64{10, 0, 0, 10, 0, 0}
		default:
			return []uint64{7, 0, 0, 7, 0, 0}
		}
	}
	renewAll(t, a, 3, applied)
	if got := a.Map().Epoch; got != 1 {
		t.Fatalf("healthy cluster moved the map to epoch %d", got)
	}

	// Server 0 goes silent past its TTL; 1 and 2 keep renewing.
	clk.advance(2 * time.Second)
	if _, err := a.Renew(1, applied(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Renew(2, applied(2)); err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Second) // server 0 now 4s stale, TTL 3s
	if _, err := a.Renew(1, applied(1)); err != nil {
		t.Fatal(err)
	}
	m := a.Map()
	if m.Epoch != 2 {
		t.Fatalf("epoch = %d after owner death, want 2", m.Epoch)
	}
	for _, s := range []int{0, 3} {
		if m.Owner(s) != 1 {
			t.Fatalf("shard %d promoted to %d, want most-caught-up server 1", s, m.Owner(s))
		}
	}
	// Shards owned by live servers must not move.
	for _, s := range []int{1, 2, 4, 5} {
		if m.Owner(s) != recommend.OwnerOf(s, 3) {
			t.Fatalf("shard %d moved to %d though its owner is alive", s, m.Owner(s))
		}
	}
	if len(events) != 1 {
		t.Fatalf("published %d ownership events, want 1", len(events))
	}
	ev := events[0]
	if ev.Kind != ops.KindOwnership || ev.Ownership.Reason != ops.OwnershipFailover {
		t.Fatalf("event = %+v, want ownership/failover", ev)
	}
	if ev.Ownership.Epoch != 2 || ev.Ownership.PrevEpoch != 1 || len(ev.Ownership.Moved) != 2 {
		t.Fatalf("event payload = %+v", ev.Ownership)
	}
	if ev.Ownership.Server != -1 {
		t.Fatalf("authority-published event must carry server -1, got %d", ev.Ownership.Server)
	}

	// The deposed server comes back and renews: it is live again, but its
	// old shards stay promoted (no flap back without catch-up evidence).
	if grant, err := a.Renew(0, nil); err != nil {
		t.Fatal(err)
	} else if grant.Map.Owner(0) == 0 && grant.Map.Epoch == 2 {
		t.Fatalf("deposed server regained shard 0 without catch-up: %+v", grant.Map)
	}
}

func TestAuthorityDeregisterLeaves(t *testing.T) {
	clk := newFakeClock()
	var events []ops.Event
	a := newTestAuthority(t, 4, 2, clk, func(ev ops.Event) { events = append(events, ev) })
	renewAll(t, a, 2, func(int) []uint64 { return []uint64{5, 5, 5, 5} })

	if err := a.DeregisterServer(1); err != nil {
		t.Fatal(err)
	}
	m := a.Map()
	if m.Epoch != 2 {
		t.Fatalf("epoch = %d after leave, want 2", m.Epoch)
	}
	for s := 0; s < 4; s++ {
		if m.Owner(s) != 0 {
			t.Fatalf("shard %d owner = %d after server 1 left, want 0", s, m.Owner(s))
		}
	}
	if len(events) != 1 || events[0].Ownership.Reason != ops.OwnershipLeave {
		t.Fatalf("events = %+v, want one leave transition", events)
	}
}

func TestAuthorityJoinMovesOnlyCaughtUpShards(t *testing.T) {
	clk := newFakeClock()
	a := newTestAuthority(t, 4, 2, clk, nil)

	// Both servers healthy at epoch 1 (owners 0 1 0 1), then server 1
	// lapses: its shards 1 and 3 fail over to server 0.
	renewAll(t, a, 2, func(int) []uint64 { return []uint64{5, 5, 5, 5} })
	clk.advance(4 * time.Second)
	if _, err := a.Renew(0, []uint64{5, 5, 5, 5}); err != nil {
		t.Fatal(err)
	}
	if m := a.Map(); m.Epoch != 2 || m.Owner(1) != 0 || m.Owner(3) != 0 {
		t.Fatalf("failover map = %+v, want shards 1,3 on server 0 at epoch 2", m)
	}

	// The deposed server rejoins. Its pre-lapse evidence must be discarded:
	// renewing with no report reclaims nothing.
	grant, err := a.Renew(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if grant.Map.Epoch != 2 {
		t.Fatalf("rejoin without evidence moved the map: %+v", grant.Map)
	}

	// Owner reports heads 6; the rejoiner has caught up on shard 1 only.
	// Exactly that shard flows back, reason join.
	if _, err := a.Renew(0, []uint64{6, 6, 6, 6}); err != nil {
		t.Fatal(err)
	}
	grant, err = a.Renew(1, []uint64{0, 6, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if grant.Map.Epoch != 3 || grant.Map.Owner(1) != 1 {
		t.Fatalf("caught-up shard 1 not rebalanced back: %+v", grant.Map)
	}
	if grant.Reason != ops.OwnershipJoin {
		t.Fatalf("grant reason = %q, want join", grant.Reason)
	}
	if grant.Map.Owner(3) != 0 {
		t.Fatal("behind shard 3 moved back without catch-up")
	}
	if grant.Map.Owner(0) != 0 || grant.Map.Owner(2) != 0 {
		t.Fatalf("live owner's own shards moved: %+v", grant.Map)
	}
}

func TestAuthorityJoinGraceProtectsBootingServers(t *testing.T) {
	clk := newFakeClock()
	a := newTestAuthority(t, 4, 2, clk, nil)

	// Server 1 has never renewed. Within JoinGrace (3×TTL = 9s) its static
	// shards must stay put even as server 0 renews.
	if _, err := a.Renew(0, []uint64{3, 3, 3, 3}); err != nil {
		t.Fatal(err)
	}
	if m := a.Map(); m.Epoch != 1 {
		t.Fatalf("map moved to epoch %d while the peer was still in its join grace", m.Epoch)
	}
	// Past the grace it is dead: its shards fail over.
	clk.advance(10 * time.Second)
	grant, err := a.Renew(0, []uint64{3, 3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if grant.Map.Epoch != 2 {
		t.Fatalf("epoch = %d after grace expiry, want 2", grant.Map.Epoch)
	}
	for s := 0; s < 4; s++ {
		if grant.Map.Owner(s) != 0 {
			t.Fatalf("shard %d owner = %d, want 0 after never-leased peer declared dead", s, grant.Map.Owner(s))
		}
	}
}

func TestLeaseClientAdvancesAndArmsTable(t *testing.T) {
	clk := newFakeClock()
	a := newTestAuthority(t, 4, 2, clk, nil)
	table := recommend.NewOwnershipTable(recommend.StaticOwnership(4, 2))
	var published []ops.Event
	client := &LeaseClient{
		Self:  0,
		Table: table,
		Renew: func(_ context.Context, server int, applied []uint64) (LeaseGrant, error) {
			return a.Renew(server, applied)
		},
		Applied: func() []uint64 { return []uint64{9, 9, 9, 9} },
		Publish: func(ev ops.Event) { published = append(published, ev) },
	}
	if err := client.RenewOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := table.Expired(); err != nil {
		t.Fatalf("freshly renewed table reports %v", err)
	}
	if len(published) != 0 {
		t.Fatalf("no map transition yet, but client published %+v", published)
	}

	// Kill server 1 (deregister) so the authority advances the map; the
	// client's next renewal must adopt it and publish the local view.
	if err := a.DeregisterServer(1); err != nil {
		t.Fatal(err)
	}
	if err := client.RenewOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if table.Epoch() != 2 {
		t.Fatalf("table epoch = %d after grant, want 2", table.Epoch())
	}
	if len(published) != 1 {
		t.Fatalf("published %d events, want 1 transition", len(published))
	}
	ev := published[0].Ownership
	if ev.Server != 0 || ev.Epoch != 2 || ev.PrevEpoch != 1 || ev.Reason != ops.OwnershipLeave {
		t.Fatalf("published transition = %+v", ev)
	}
}

// TestLeaseCountsFromRequestNotReply: the authority starts a lease's TTL
// when it processes the renewal, so the table must stop believing in it one
// TTL after the request left — not one TTL after a slow reply came back,
// which would let a deposed owner ack writes for a reply-latency longer
// than the authority honours its lease.
func TestLeaseCountsFromRequestNotReply(t *testing.T) {
	const ttl, latency = 400 * time.Millisecond, 300 * time.Millisecond
	table := recommend.NewOwnershipTable(recommend.StaticOwnership(4, 2))
	client := &LeaseClient{
		Self:  0,
		Table: table,
		Renew: func(context.Context, int, []uint64) (LeaseGrant, error) {
			time.Sleep(latency)
			return LeaseGrant{Map: table.Current(), TTLMs: ttl.Milliseconds()}, nil
		},
	}
	sent := time.Now()
	if err := client.RenewOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Until(sent.Add(ttl + 50*time.Millisecond)))
	if err := table.Expired(); !errors.Is(err, recommend.ErrLeaseExpired) {
		t.Fatalf("%v after the renewal was sent under a %v TTL: Expired() = %v, want ErrLeaseExpired",
			time.Since(sent), ttl, err)
	}
}
