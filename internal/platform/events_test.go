package platform

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"agentrec/internal/ops"
)

// TestPlatformEventPlane: a replicated platform with Config.Events streams
// journal events for writes, heartbeat snapshots on the configured
// interval, and Metrics reports what the deployment actually holds.
func TestPlatformEventPlane(t *testing.T) {
	p, err := New(Config{
		Marketplaces:   1,
		BuyerServers:   2,
		Products:       demoProducts(),
		EventsInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Events == nil {
		t.Fatal("Config.EventsInterval did not create a bus")
	}

	ctx := testCtx(t)
	sub, err := p.Subscribe(ctx, ops.KindJournal, ops.KindSnapshot)
	if err != nil {
		t.Fatal(err)
	}

	b := p.Buyer()
	if err := b.Register(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Login(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Buy(ctx, "alice", "p1", 0, false); err != nil {
		t.Fatal(err)
	}

	var sawJournal, sawSnapshot bool
	for !(sawJournal && sawSnapshot) {
		ev, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("stream ended before journal+snapshot seen: %v", err)
		}
		switch ev.Kind {
		case ops.KindJournal:
			sawJournal = true
		case ops.KindSnapshot:
			sawSnapshot = true
			if ev.Snapshot == nil || len(ev.Snapshot.Servers) != 2 {
				t.Fatalf("heartbeat snapshot = %+v, want 2 servers", ev.Snapshot)
			}
		case ops.KindDropped:
			t.Fatal("unexpected drop marker in a fast consumer")
		default:
			t.Fatalf("unexpected kind %q with journal+snapshot filter", ev.Kind)
		}
	}

	// Metrics against the ground truth: one consumer registered, replicated
	// to both servers, each reporting under its own index with no backlog.
	if err := p.SyncReplicas(ctx); err != nil {
		t.Fatal(err)
	}
	snap := p.Metrics()
	if len(snap.Servers) != 2 {
		t.Fatalf("Metrics has %d servers, want 2", len(snap.Servers))
	}
	for i, sv := range snap.Servers {
		if sv.Server != i {
			t.Errorf("server %d labelled %d", i, sv.Server)
		}
		if sv.Engine.Users != 1 || sv.Engine.Shards != engines(p)[i].Shards() {
			t.Errorf("server %d engine view %+v, want 1 user over %d shards", i, sv.Engine, engines(p)[i].Shards())
		}
		if sv.Replication == nil {
			t.Fatalf("server %d missing replication view", i)
		}
		if sv.Replication.Self != i || sv.Replication.LagRecords != 0 {
			t.Errorf("server %d replication view %+v, want self %d and no lag after sync", i, sv.Replication, i)
		}
	}
	if len(p.Replicas) != len(snap.Servers) {
		t.Errorf("platform has %d replicas, Metrics %d servers", len(p.Replicas), len(snap.Servers))
	}
	if snap.TotalLagRecords() != 0 {
		t.Errorf("total lag after sync = %d", snap.TotalLagRecords())
	}

	// The snapshot serializes with agent-first names.
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"at_epoch_ms", "journal_bytes", "lag_records", "applied_seq"} {
		if !strings.Contains(string(raw), `"`+field+`"`) {
			t.Errorf("snapshot JSON missing %q: %s", field, raw)
		}
	}
}

// TestPlatformEventsDisabled: without Config.Events the bus is absent,
// Subscribe refuses, and Metrics still works: one server, owning every
// shard, follows none.
func TestPlatformEventsDisabled(t *testing.T) {
	p, err := New(Config{Marketplaces: 1, Products: demoProducts()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Events != nil {
		t.Fatal("bus created without Config.Events")
	}
	if _, err := p.Subscribe(context.Background()); !errors.Is(err, ErrEventsDisabled) {
		t.Fatalf("Subscribe error = %v, want ErrEventsDisabled", err)
	}
	snap := p.Metrics()
	if len(snap.Servers) != 1 {
		t.Fatalf("Metrics without events = %+v, want 1 server", snap)
	}
	if repl := snap.Servers[0].Replication; repl == nil || repl.Self != 0 || repl.Servers != 1 || len(repl.Shards) != 0 || repl.LagRecords != 0 {
		t.Fatalf("one server's replication view = %+v, want self 0 of 1 following no shard", repl)
	}
}

// TestPlatformCloseStopsEventPlane: Close drains subscribers so consumers
// terminate instead of hanging.
func TestPlatformCloseStopsEventPlane(t *testing.T) {
	p, err := New(Config{Marketplaces: 1, Products: demoProducts(), EventsInterval: ops.DefaultHeartbeatInterval})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := p.Subscribe(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for {
		_, err := sub.Next(ctx)
		if errors.Is(err, ops.ErrSubscriptionClosed) {
			break
		}
		if err != nil {
			t.Fatalf("Next after Close = %v, want ErrSubscriptionClosed", err)
		}
	}
	// Closing again stays clean.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
