package platform

import (
	"context"
	"errors"

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
	context.AfterFunc(ctx, sub.Close) // Close is idempotent
	return sub, nil
}
