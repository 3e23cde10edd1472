package recommend

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"agentrec/internal/ops"
	"agentrec/internal/profile"
)

// This file is the ownership model the replication layer routes by. For
// most of the repo's history ownership was the pure function OwnerOf
// (shard % N over a fixed server list): correct, but rigid — a dead owner
// stalls writes to its shards forever, and the server set cannot change
// without restarting the world. OwnershipMap makes the assignment a
// versioned value instead: an epoch plus an explicit shard→server vector.
// The coordinator's ownership authority (internal/coordinator) mutates the
// map — promoting a caught-up follower when an owner's lease lapses,
// rebalancing on join/leave with a rendezvous choice that moves only the
// shards that must move — and leases it to every server, which holds its
// copy in an OwnershipTable.
//
// The epoch is the fencing token. Every routed write and replication pull
// is stamped with the sender's map epoch, and the receiver's table admits
// it only if the epochs match AND the receiver owns the shard (Fence). A
// deposed owner therefore fails loudly on both sides of every exchange:
// its outgoing frames carry a stale epoch, its incoming frames arrive at a
// server whose epoch has moved on, and its own local writes are refused
// once its lease has expired — the classic lease discipline that keeps a
// SIGSTOP'd owner from silently acking writes after waking up.
//
// Every engine carries its table and its server's index in it: Open starts
// it at the one-server map, which owns every shard, and BindOwnership is
// how the router, the replicator, replnet's handler and platform.Replica
// reach it. A write is admitted inside the engine's write primitive, with
// the shard lock held (lockShardW), by one of three rules on that table:
// the owner's local write (admitOwner, the rule of the public write API),
// a stamped forwarded write (Fence), and a follower's apply of a pulled
// reply (admitApply). So no write goes unfenced, and a check and the
// mutation it guards can no longer straddle another role's mutation of the
// same shard. A table read takes no lock, and no table method calls into
// the engine.
//
// StaticOwnership(shards, servers) at epoch 1 is exactly the historical
// shard%N map, so deployments without a coordinator keep today's behaviour
// bit for bit: every server derives the same epoch-1 map from its config,
// all stamps agree forever, and the fence never fires.

// Errors reported by the ownership fence.
var (
	// ErrStaleEpoch rejects a frame whose ownership epoch differs from
	// the receiver's — one side of the exchange has an outdated map.
	ErrStaleEpoch = errors.New("recommend: ownership epoch mismatch")
	// ErrNotOwner rejects a write or tail for a shard the receiving
	// server does not own under its current map.
	ErrNotOwner = errors.New("recommend: shard not owned by this server")
	// ErrLeaseExpired refuses local writes on a server whose ownership
	// lease has lapsed: until it renews, it must assume it was deposed.
	ErrLeaseExpired = errors.New("recommend: ownership lease expired")
	// ErrOwnershipBound refuses binding an engine to an ownership map or a
	// server index other than the ones it is already bound to.
	ErrOwnershipBound = errors.New("recommend: engine bound to another ownership map")
)

// OwnershipMap is one versioned shard→server assignment: Assign[shard] is
// the owning server's index, Epoch increases by one on every transition.
// The zero map (Epoch 0) means "no map"; real maps start at epoch 1.
type OwnershipMap struct {
	Epoch  uint64 `json:"epoch"`
	Assign []int  `json:"assign"`
}

// StaticOwnership is the degenerate no-coordinator map: shard s owned by
// server s%N at epoch 1 — identical to the historical OwnerOf function, so
// static deployments derive the same map from config alone.
func StaticOwnership(shards, servers int) OwnershipMap {
	m := OwnershipMap{Epoch: 1, Assign: make([]int, shards)}
	for s := range m.Assign {
		m.Assign[s] = OwnerOf(s, servers)
	}
	return m
}

// Owner reports the shard's owning server, or -1 when the map does not
// cover the shard.
func (m OwnershipMap) Owner(shard int) int {
	if shard < 0 || shard >= len(m.Assign) {
		return -1
	}
	return m.Assign[shard]
}

// Clone returns a deep copy, safe to mutate.
func (m OwnershipMap) Clone() OwnershipMap {
	return OwnershipMap{Epoch: m.Epoch, Assign: append([]int(nil), m.Assign...)}
}

// Hash is a stable fingerprint of the assignment (epoch included), for the
// startup consistency check platformd runs across peers.
func (m OwnershipMap) Hash() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "epoch=%d;shards=%d;", m.Epoch, len(m.Assign))
	for _, owner := range m.Assign {
		fmt.Fprintf(h, "%d,", owner)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// DiffOwnership lists the shards whose owner changed from prev to next, in
// shard order — the `moved` payload of an ownership event.
func DiffOwnership(prev, next OwnershipMap) []ops.ShardMove {
	var moves []ops.ShardMove
	for s := range next.Assign {
		from := prev.Owner(s)
		if to := next.Assign[s]; to != from {
			moves = append(moves, ops.ShardMove{Shard: s, From: from, To: to})
		}
	}
	return moves
}

// RendezvousOwner picks shard's owner among the live server indices by
// highest-random-weight (rendezvous) hashing: each (shard, server) pair
// hashes to a weight and the highest weight wins. Removing a server moves
// only that server's shards; adding one steals only the shards it now wins
// — the minimal-movement property modulo arithmetic lacks.
func RendezvousOwner(shard int, live []int) int {
	best, bestW := -1, uint64(0)
	for _, srv := range live {
		w := rendezvousWeight(shard, srv)
		if best < 0 || w > bestW || (w == bestW && srv < best) {
			best, bestW = srv, w
		}
	}
	return best
}

// rendezvousWeight is a splitmix64 finalizer over the (shard, server)
// pair: cheap, stateless, and uniform enough for placement.
func rendezvousWeight(shard, server int) uint64 {
	z := uint64(shard)<<32 ^ uint64(uint32(server)) ^ 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// OwnershipTable is one server's live copy of the ownership map: every
// write admits against it, routers read it per write, the replicator
// re-reads it per pull, and the lease client advances it whenever the
// coordinator's grant carries a newer epoch. A table without lease tracking
// (static deployments) never expires; a leased table refuses local
// ownership once its expiry passes until the next successful renewal.
// Reads take no lock: each change publishes a whole new state, so the
// writes of every shard read the table without contending on it.
type OwnershipTable struct {
	mu    sync.Mutex // serializes Advance and Lease
	state atomic.Pointer[tableState]
}

// tableState is one immutable look at a table.
type tableState struct {
	m          OwnershipMap
	leased     bool
	validUntil time.Time
}

// NewOwnershipTable returns a table holding m.
func NewOwnershipTable(m OwnershipMap) *OwnershipTable {
	t := &OwnershipTable{}
	t.state.Store(&tableState{m: m.Clone()})
	return t
}

// Current returns a copy of the held map.
func (t *OwnershipTable) Current() OwnershipMap { return t.state.Load().m.Clone() }

// Epoch returns the held map's epoch.
func (t *OwnershipTable) Epoch() uint64 { return t.state.Load().m.Epoch }

// Owner reports shard's owner under the held map (-1 when uncovered).
func (t *OwnershipTable) Owner(shard int) int { return t.state.Load().m.Owner(shard) }

// Advance adopts m if it is strictly newer than the held map, reporting
// whether the table changed. Stale or same-epoch maps are ignored, so
// out-of-order grant deliveries cannot roll the table back.
func (t *OwnershipTable) Advance(m OwnershipMap) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := *t.state.Load()
	if m.Epoch <= st.m.Epoch {
		return false
	}
	st.m = m.Clone()
	t.state.Store(&st)
	return true
}

// Lease records a renewed ownership lease valid until the given time and
// marks the table lease-managed: from now on, local ownership claims fail
// with ErrLeaseExpired once validUntil passes without another renewal.
func (t *OwnershipTable) Lease(validUntil time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := *t.state.Load()
	st.leased, st.validUntil = true, validUntil
	t.state.Store(&st)
}

// read is one consistent look at the table for shard: the map's epoch, the
// shard's owner (-1 when uncovered) and the lease's verdict (nil for static
// tables and live leases). Every admission rule decides from one read.
func (t *OwnershipTable) read(shard int) (epoch uint64, owner int, lease error) {
	st := t.state.Load()
	if st.leased && time.Now().After(st.validUntil) {
		lease = fmt.Errorf("%w (was valid until %s): renew against the coordinator before serving writes",
			ErrLeaseExpired, st.validUntil.Format(time.RFC3339Nano))
	}
	return st.m.Epoch, st.m.Owner(shard), lease
}

// Expired reports the lease discipline violation, if any: nil for static
// (never-leased) tables and live leases, ErrLeaseExpired once a leased
// table's expiry has passed. A server whose lease lapsed must treat its
// own ownership as suspect — the coordinator may already have promoted a
// follower — so it admits no write of its own until it renews.
func (t *OwnershipTable) Expired() error {
	_, _, err := t.read(-1)
	return err
}

// Fence admits a frame stamped with senderEpoch for shard, arriving at
// server self. It enforces the ownership invariant every epoch-fenced
// surface shares: the sender and receiver must hold the same map epoch,
// the receiver must own the shard under that map, and the receiver's own
// lease must be live. Any violation is an error wrapping ErrStaleEpoch,
// ErrNotOwner, or ErrLeaseExpired — a deposed owner's replayed frames and
// a stale receiver both fail loudly instead of split-braining replicas.
// It is the admission rule of a forwarded write (OwnedWriter) and the
// fence of replnet's tails and pages.
func (t *OwnershipTable) Fence(senderEpoch uint64, shard, self int) error {
	epoch, owner, err := t.read(shard)
	if err != nil {
		return err
	}
	if senderEpoch != epoch {
		side := "sender"
		if senderEpoch > epoch {
			side = "receiver"
		}
		return fmt.Errorf("%w: frame at epoch %d, server %d at epoch %d (%s is stale)",
			ErrStaleEpoch, senderEpoch, self, epoch, side)
	}
	return owns(shard, owner, epoch, self)
}

// admitOwner is the admission rule of the owner's local write: server
// self's lease is live and it owns shard under the held map.
func (t *OwnershipTable) admitOwner(shard, self int) error {
	epoch, owner, err := t.read(shard)
	if err != nil {
		return err
	}
	return owns(shard, owner, epoch, self)
}

// admitApply is the admission rule of a follower's apply: a reply pulled
// from server from lands only while from still owns shard. A pull holds no
// lock across its fetch — a paged bootstrap keeps that window open for
// seconds — so the table can move, this server's own promotion included,
// between choosing the peer and applying its reply; a deposed owner's reply
// must not land over writes the new owner has acked.
func (t *OwnershipTable) admitApply(shard, from int) error {
	if _, owner, _ := t.read(shard); owner != from {
		return fmt.Errorf("recommend: dropping shard %d reply from server %d: server %d owns the shard now", shard, from, owner)
	}
	return nil
}

func owns(shard, owner int, epoch uint64, self int) error {
	if owner != self {
		return fmt.Errorf("%w: shard %d owned by server %d at epoch %d, not server %d",
			ErrNotOwner, shard, owner, epoch, self)
	}
	return nil
}

// admitFunc is one write's admission rule: lockShardW runs it with the
// shard's write lock held, against the engine's table t and the engine's
// server index self, and refuses the write on error.
type admitFunc func(t *OwnershipTable, shard, self int) error

// binding is an engine's ownership table and its server's index in it.
// bound is false until the first BindOwnership, while the engine still
// holds the one-server map Open gave it.
type binding struct {
	table *OwnershipTable
	self  int
	bound bool
}

// BindOwnership binds the engine to t as server self and returns the table
// the engine is bound to. The first call adopts t. Every later call only
// checks it: a t holding the bound table's map (epoch and assignment) under
// the same self returns the bound table, and anything else is refused with
// ErrOwnershipBound. NewRouter, NewReplicator, replnet.Handler and
// platform.NewReplica all bind, so the parts of one server fence against
// one table; none of them holds a table of its own.
func (e *Engine) BindOwnership(t *OwnershipTable, self int) (*OwnershipTable, error) {
	e.ownMu.Lock()
	defer e.ownMu.Unlock()
	b := e.own.Load()
	if !b.bound {
		e.own.Store(&binding{table: t, self: self, bound: true})
		return t, nil
	}
	if t == b.table && self == b.self {
		return t, nil
	}
	have, want := b.table.Current(), t.Current()
	if self != b.self || have.Epoch != want.Epoch || !slices.Equal(have.Assign, want.Assign) {
		return nil, fmt.Errorf("%w: bound as server %d at epoch %d (map %s), asked for server %d at epoch %d (map %s)",
			ErrOwnershipBound, b.self, have.Epoch, have.Hash(), self, want.Epoch, want.Hash())
	}
	return b.table, nil
}

// Ownership returns the engine's ownership table: the one it was bound to,
// else the one-server map Open started it at.
func (e *Engine) Ownership() *OwnershipTable { return e.own.Load().table }

// OwnedWriter is the fenced write surface of a receiving server: each
// write is stamped with the sender's map epoch as it is made and admitted
// by the Fence of the receiving engine's own table under the shard lock,
// exactly as replnet's Handler admits a forwarded frame (it builds one per
// frame). Routers in replicated in-process deployments use it as the write
// surface of every remote server, so a deposed sender's routed writes fail
// loudly there too.
//
// A batch the receiver refuses on arrival — a stale stamp, or a shard it
// does not own — is refused before anything is installed. Only a table that
// moves in the middle of a batch splits it: the shards installed before the
// move stay, the rest are refused.
type OwnedWriter struct {
	Local *Engine // receiving server's engine
	// Sender is the sending server's epoch source: its table in process,
	// the frame's stamp over the wire.
	Sender interface{ Epoch() uint64 }
}

// fence is the admission rule of one write, stamped now.
func (w OwnedWriter) fence() admitFunc {
	epoch := w.Sender.Epoch()
	return func(t *OwnershipTable, shard, self int) error { return t.Fence(epoch, shard, self) }
}

// SetProfile implements Writer.
func (w OwnedWriter) SetProfile(p *profile.Profile) error {
	return w.SetProfiles([]*profile.Profile{p})
}

// SetProfiles implements Writer.
func (w OwnedWriter) SetProfiles(ps []*profile.Profile) error {
	return w.Local.setProfiles(ps, nil, w.fence())
}

// SetEncodedProfiles is SetProfiles for a write its sender encoded, as a
// forwarded frame is: the WAL and journal feed keep encoded as it arrived.
func (w OwnedWriter) SetEncodedProfiles(encoded [][]byte) error {
	profs, err := decodeProfiles(encoded, 0, 0)
	if err != nil {
		return err
	}
	return w.Local.setProfiles(profs, encoded, w.fence())
}

// RecordPurchase implements Writer.
func (w OwnedWriter) RecordPurchase(userID, productID string) error {
	return w.RecordPurchaseAt(userID, productID, time.Time{})
}

// RecordPurchaseAt implements Writer.
func (w OwnedWriter) RecordPurchaseAt(userID, productID string, at time.Time) error {
	return w.Local.recordPurchaseAt(userID, productID, at, w.fence())
}

var _ Writer = OwnedWriter{}
