package coordinator

import (
	"context"
	"fmt"
	"sync"
	"time"

	"agentrec/internal/ops"
	"agentrec/internal/recommend"
)

// This file seats elastic shard ownership in the paper's Coordinator
// Server: alongside the domain directory, the CA can carry an ownership
// Authority — the single writer of the epoch-versioned shard→server map
// the replication layer routes by (recommend.OwnershipMap). Servers renew
// a lease against the authority on every beat, attaching per-shard
// catch-up evidence (their replicator's AppliedSeqs); the authority uses
// the lapse of a lease to detect death and the evidence to promote the
// most caught-up follower, and uses joins to rebalance shards onto new
// servers — but only shards whose replica on the joiner has provably
// reached the owner's head, so a rebalance never installs an owner that
// would serve from behind.
//
// The authority is deliberately a small in-memory state machine driven
// only by renewals and deregistrations (no background goroutine): time
// enters through now(), so tests drive failover with a fake clock, and a
// deployment's failover latency is simply the lease TTL every grant carries.

// KindLease is the CA message kind of an ownership lease renewal.
const KindLease = "ownership-lease"

// LeaseRequest is one server's lease renewal: who is renewing and, per
// shard, how far its replica has advanced in the owning feed's numbering
// (recommend.Replicator.AppliedSeqs). Applied may be empty when the server
// has no evidence yet (booting).
type LeaseRequest struct {
	Server  int      `json:"server"`
	Applied []uint64 `json:"applied,omitempty"`
}

// LeaseGrant is the authority's answer: the current ownership map, how
// long the renewed lease is valid, and the reason of the latest map
// transition (join | leave | failover; "" while still on the initial map).
type LeaseGrant struct {
	Map    recommend.OwnershipMap `json:"map"`
	TTLMs  int64                  `json:"ttl_ms"`
	Reason string                 `json:"reason,omitempty"`
}

// LeaseTTL is the TTL of a lease renewed every renewEvery: a server misses
// renewalsPerTTL renewals in a row before its lease lapses.
func LeaseTTL(renewEvery time.Duration) time.Duration { return renewalsPerTTL * renewEvery }

const (
	renewalsPerTTL    = 3
	firstRenewalRetry = 100 * time.Millisecond // until a grant sets the cadence
)

// joinGraceTTLs is how many lease TTLs after startup a server that has
// never renewed is still given the benefit of the doubt. Booting and dead
// look identical before the first renewal; stealing a booting server's
// static shards would force pointless churn.
const joinGraceTTLs = 3

// OwnershipConfig sizes an ownership Authority.
type OwnershipConfig struct {
	Shards  int // community shard count (every server must agree)
	Servers int // server count; indices 0..Servers-1

	// LeaseTTL is how long one renewal keeps a server alive [3s]. A
	// server whose lease lapses is dead: its shards fail over to the most
	// caught-up live follower on the next renewal that observes the lapse.
	// A server that has never renewed is given joinGraceTTLs of them.
	LeaseTTL time.Duration
	// Publish, when set, receives one ops ownership event per map
	// transition (the authority-side view, Server -1).
	Publish func(ops.Event)

	now func() time.Time // test hook; time.Now when nil
}

// Authority is the coordinator-side owner of the ownership map. Construct
// with NewOwnershipAuthority; attach to a Coordinator with
// AttachOwnership to expose it over the CA's message interface.
type Authority struct {
	cfg OwnershipConfig

	mu         sync.Mutex
	m          recommend.OwnershipMap
	lastReason string
	started    time.Time
	leaseUntil []time.Time
	everLeased []bool
	applied    [][]uint64 // applied[server][shard], owner-feed numbering
}

// NewOwnershipAuthority returns an authority starting from the static
// epoch-1 map over cfg.Servers servers, so a deployment that attaches a
// coordinator mid-life begins exactly where the static world left off.
func NewOwnershipAuthority(cfg OwnershipConfig) (*Authority, error) {
	if cfg.Shards <= 0 || cfg.Servers <= 0 {
		return nil, fmt.Errorf("coordinator: ownership authority needs shards (%d) and servers (%d) > 0",
			cfg.Shards, cfg.Servers)
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = LeaseTTL(time.Second)
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	a := &Authority{
		cfg:        cfg,
		m:          recommend.StaticOwnership(cfg.Shards, cfg.Servers),
		started:    cfg.now(),
		leaseUntil: make([]time.Time, cfg.Servers),
		everLeased: make([]bool, cfg.Servers),
		applied:    make([][]uint64, cfg.Servers),
	}
	for i := range a.applied {
		a.applied[i] = make([]uint64, cfg.Shards)
	}
	return a, nil
}

// Map returns the current ownership map.
func (a *Authority) Map() recommend.OwnershipMap {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.m.Clone()
}

// Renew records server's lease renewal with its catch-up evidence, runs
// the failover/rebalance step, and grants the (possibly advanced) map.
func (a *Authority) Renew(server int, applied []uint64) (LeaseGrant, error) {
	if server < 0 || server >= a.cfg.Servers {
		return LeaseGrant{}, fmt.Errorf("coordinator: lease renewal from unknown server %d of %d",
			server, a.cfg.Servers)
	}
	now := a.cfg.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.everLeased[server] || !now.Before(a.leaseUntil[server]) {
		// First renewal or a rejoin after a lapse: whatever evidence is on
		// file predates the gap and must not gate promotions or win back
		// shards — the server re-proves its catch-up from zero.
		clear(a.applied[server])
	}
	a.everLeased[server] = true
	a.leaseUntil[server] = now.Add(a.cfg.LeaseTTL)
	if len(applied) == a.cfg.Shards {
		copy(a.applied[server], applied)
	}
	a.step(now, ops.OwnershipFailover)
	return LeaseGrant{Map: a.m.Clone(), TTLMs: a.cfg.LeaseTTL.Milliseconds(), Reason: a.lastReason}, nil
}

// DeregisterServer expires server's lease immediately — a clean leave. Its
// shards are promoted away on the spot (reason "leave") using the last
// catch-up evidence on file.
func (a *Authority) DeregisterServer(server int) error {
	if server < 0 || server >= a.cfg.Servers {
		return fmt.Errorf("coordinator: deregister of unknown server %d of %d", server, a.cfg.Servers)
	}
	now := a.cfg.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.everLeased[server] = true
	a.leaseUntil[server] = now
	a.step(now, ops.OwnershipLeave)
	return nil
}

// liveAt classifies server at time now. Caller holds a.mu.
func (a *Authority) liveAt(server int, now time.Time) (live, dead bool) {
	if a.everLeased[server] {
		live = now.Before(a.leaseUntil[server])
		return live, !live
	}
	// Never renewed: booting until the join grace elapses, dead after.
	return false, now.Sub(a.started) > joinGraceTTLs*a.cfg.LeaseTTL
}

// preferredOwner is the deterministic placement rule: the static (epoch-1)
// owner while it lives, the rendezvous choice among the live servers
// otherwise. Static-first means a fully healthy cluster never moves a
// shard (boot causes zero churn), and a recovered server is the preferred
// home for exactly the shards it used to own; rendezvous takes over only
// when the static owner is gone, moving each orphaned shard to one stable
// substitute. Caller holds a.mu.
func (a *Authority) preferredOwner(s int, live []int) int {
	static := recommend.OwnerOf(s, a.cfg.Servers)
	for _, j := range live {
		if j == static {
			return static
		}
	}
	return recommend.RendezvousOwner(s, live)
}

// step advances the map at most one epoch: failover of dead owners' shards
// takes priority; otherwise caught-up shards flow back to their preferred
// owner (a rejoined server reclaiming its shards, or a joiner winning the
// rendezvous fallback). Caller holds a.mu. deadReason is the reason a
// failover transition is published under (failover normally, leave when
// the lapse was a clean deregistration).
func (a *Authority) step(now time.Time, deadReason string) {
	live := make([]int, 0, a.cfg.Servers)
	for i := 0; i < a.cfg.Servers; i++ {
		if ok, _ := a.liveAt(i, now); ok {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return // nobody to promote; leave the map alone
	}

	next := a.m.Clone()
	reason := ""
	for s, owner := range a.m.Assign {
		if owner >= 0 && owner < a.cfg.Servers {
			if _, dead := a.liveAt(owner, now); !dead {
				continue
			}
		}
		// Dead (or out-of-range) owner: promote the most caught-up live
		// follower; ties break to the preferred owner, then lowest index.
		pref := a.preferredOwner(s, live)
		best, bestSeq := -1, uint64(0)
		for _, j := range live {
			seq := a.applied[j][s]
			if best < 0 || seq > bestSeq || (seq == bestSeq && (j == pref || (best != pref && j < best))) {
				best, bestSeq = j, seq
			}
		}
		next.Assign[s] = best
		reason = deadReason
	}
	if reason == "" {
		// No failover pending: rebalance shards whose live owner is not
		// the preferred one — but only when the preferred server's replica
		// has provably reached the owner's reported head, so the move
		// never installs a behind owner. The owner can still ack writes
		// between its last renewal and adopting the new map; that residual
		// window is bounded by one renew interval and is the documented
		// cost of lease-based handoff.
		for s, owner := range a.m.Assign {
			if owner < 0 || owner >= a.cfg.Servers {
				continue
			}
			if ok, _ := a.liveAt(owner, now); !ok {
				continue // booting owner: no fresh evidence to gate on
			}
			pref := a.preferredOwner(s, live)
			if pref == owner {
				continue
			}
			if a.applied[pref][s] == a.applied[owner][s] {
				next.Assign[s] = pref
				reason = ops.OwnershipJoin
			}
		}
	}
	if reason == "" {
		return
	}
	moved := recommend.DiffOwnership(a.m, next)
	if len(moved) == 0 {
		return
	}
	next.Epoch = a.m.Epoch + 1
	prev := a.m.Epoch
	a.m = next
	a.lastReason = reason
	if a.cfg.Publish != nil {
		a.cfg.Publish(ops.Event{Kind: ops.KindOwnership, Ownership: ops.OwnershipEvent{
			Server:    -1,
			Epoch:     next.Epoch,
			PrevEpoch: prev,
			Reason:    reason,
			Moved:     moved,
		}})
	}
}

// AttachOwnership wires an ownership authority into the coordinator: the
// CA answers KindLease renewals with the authority's grants. Attach once,
// before serving traffic (the authority's server/shard counts come from
// the deployment config, which the Coordinator does not know).
func (c *Coordinator) AttachOwnership(a *Authority) {
	c.mu.Lock()
	c.ownership = a
	c.mu.Unlock()
}

// Ownership returns the attached authority, or nil.
func (c *Coordinator) Ownership() *Authority {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ownership
}

// RenewFunc renews one server's ownership lease — a direct Authority call
// in process, a CA round-trip over the wire.
type RenewFunc func(ctx context.Context, server int, applied []uint64) (LeaseGrant, error)

// LeaseClient keeps one server's OwnershipTable leased: it renews against
// the authority with fresh catch-up evidence, advances the table when the
// grant carries a newer map, and re-arms the lease expiry. If renewals
// stop succeeding the table simply expires — that is the lease discipline,
// not an error path: the server stops claiming ownership until it can
// renew again.
type LeaseClient struct {
	Self    int
	Table   *recommend.OwnershipTable
	Renew   RenewFunc
	Applied func() []uint64 // catch-up evidence (Replicator.AppliedSeqs); may be nil
	Publish func(ops.Event) // local ownership-transition events; may be nil
	OnError func(error)     // renewal failures (transient by design); may be nil
}

// renewOnce performs one renewal: evidence out, grant in, table advanced
// and lease re-armed, and returns the grant's TTL. A map transition
// observed here is published as this server's view of it (Server = Self).
func (c *LeaseClient) renewOnce(ctx context.Context) (time.Duration, error) {
	var applied []uint64
	if c.Applied != nil {
		applied = c.Applied()
	}
	// The authority counts the TTL from when it processed the request, so
	// the lease runs from before the request left: counted from the reply,
	// a slow renewal would outlive the authority's view by its latency and
	// a deposed owner would still ack writes.
	sent := time.Now()
	grant, err := c.Renew(ctx, c.Self, applied)
	if err != nil {
		return 0, err
	}
	ttl := time.Duration(grant.TTLMs) * time.Millisecond
	prev := c.Table.Current()
	advanced := c.Table.Advance(grant.Map)
	c.Table.Lease(sent.Add(ttl))
	if advanced && c.Publish != nil {
		c.Publish(ops.Event{Kind: ops.KindOwnership, Ownership: ops.OwnershipEvent{
			Server:    c.Self,
			Epoch:     grant.Map.Epoch,
			PrevEpoch: prev.Epoch,
			Reason:    grant.Reason,
			Moved:     recommend.DiffOwnership(prev, grant.Map),
		}})
	}
	return ttl, nil
}

// Run renews until ctx is done, every third of the TTL the last grant
// carried (every firstRenewalRetry until a grant arrives), measured from
// send to send. Renewal errors go to OnError and the loop keeps trying: a
// lapsed lease already protects the deployment (the table expires), so the
// client's job is only to come back.
func (c *LeaseClient) Run(ctx context.Context) error {
	every := firstRenewalRetry
	t := time.NewTimer(0)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
		sent := time.Now()
		ttl, err := c.renewOnce(ctx)
		if err != nil && c.OnError != nil {
			c.OnError(err)
		}
		if ttl > 0 {
			every = ttl / renewalsPerTTL
		}
		t.Reset(time.Until(sent.Add(every)))
	}
}
