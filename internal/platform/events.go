package platform

import (
	"context"
	"errors"
	"time"

	"agentrec/internal/ops"
)

// This file is the platform's event plane: one ops.Bus per process that
// every engine and replicator publishes into, a periodic whole-platform
// snapshot heartbeat, and the embedder API (Metrics, Subscribe) mirroring
// what the wire endpoints serve.

// ErrEventsDisabled reports a Subscribe on a platform built without
// Config.EventsInterval.
var ErrEventsDisabled = errors.New("platform: event plane disabled (set Config.EventsInterval)")

// Metrics returns the unified whole-platform snapshot: every buyer server's
// engine sizing and replication status. This is the stats API — one
// self-describing ops.Snapshot — and exactly what /metrics/snapshot serves
// and the KindSnapshot heartbeat publishes. It works with or without
// Config.EventsInterval.
func (p *Platform) Metrics() ops.Snapshot { return Snapshots(p.Replicas) }

// Subscribe attaches a consumer to the platform's event bus, filtered to
// kinds (none = all). The subscription is closed when ctx is cancelled;
// read it with Next until ops.ErrSubscriptionClosed. ErrEventsDisabled
// without Config.EventsInterval.
func (p *Platform) Subscribe(ctx context.Context, kinds ...ops.Kind) (*ops.Subscription, error) {
	if p.Events == nil {
		return nil, ErrEventsDisabled
	}
	sub := p.Events.Subscribe(ops.SubscribeOptions{Kinds: kinds})
	stop := context.AfterFunc(ctx, sub.Close)
	_ = stop // the subscription outliving ctx is the only lifecycle; Close is idempotent
	return sub, nil
}

// startHeartbeat launches the snapshot heartbeat New owns. Called at the end
// of New — after every engine and replicator is in place, so a tick never
// races construction.
func (p *Platform) startHeartbeat(interval time.Duration) {
	ctx, cancel := context.WithCancel(context.Background())
	p.stopHeartbeat = cancel
	p.heartbeatDone = make(chan struct{})
	go func() {
		defer close(p.heartbeatDone)
		p.Events.Heartbeat(ctx, interval, p.Metrics)
	}()
}

// closeEventPlane stops the heartbeat and closes the bus so wire consumers
// drain and disconnect. Idempotent; a no-op without Config.EventsInterval.
func (p *Platform) closeEventPlane() {
	if p.Events == nil {
		return
	}
	if p.stopHeartbeat != nil {
		p.stopHeartbeat()
		<-p.heartbeatDone
	}
	p.Events.Close()
}
