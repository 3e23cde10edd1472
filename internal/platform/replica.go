package platform

import (
	"context"
	"errors"
	"sync"
	"time"

	"agentrec/internal/catalog"
	"agentrec/internal/coordinator"
	"agentrec/internal/ops"
	"agentrec/internal/recommend"
)

// This file is the single assembly of every Buyer Agent Server: engine,
// ownership table, write router, journal replicator and lease client, with
// one lifecycle and one stats view. platform.New, platformd and the load
// harness's world all build their servers here and differ only in the
// ReplicaConfig values and the write/tail surfaces they hand to Connect. A
// one-server deployment is the degenerate case: its router admits every
// write locally and its replicator follows no shard.

// EngineConfig is the engine option set every Buyer Agent Server of a
// deployment shares. Zero fields take the engine default.
type EngineConfig struct {
	Bus          *ops.Bus           // event plane the engine publishes into; nil = none
	Shards       int                // user-keyed shard count; every server must agree
	StateDir     string             // this engine's WAL directory; "" = memory-only
	CompactRatio float64            // auto-compaction trigger; 0 = manual; needs StateDir
	Extra        []recommend.Option // applied last, so explicit tuning wins
}

// ReplicaConfig is what distinguishes one deployment's servers from
// another's; everything else about a server is fixed by Replica.
type ReplicaConfig struct {
	Self    int // this server's index among Servers
	Servers int
	Catalog *catalog.Catalog
	Engine  EngineConfig
	Pull    time.Duration // journal tail interval [recommend.DefaultPullInterval]

	// Renew leases the ownership map from a coordinator — a direct
	// Authority call in process, a CA round-trip over the wire. Nil is the
	// no-coordinator deployment: the table stays the static epoch-1 map and
	// is never leased, so it never expires and nothing ever moves.
	Renew        coordinator.RenewFunc
	Lease        time.Duration   // renewal cadence [1s]
	OnTransition func(ops.Event) // each adopted map transition; may be nil
	OnLeaseError func(error)     // renewal failures (transient by design); may be nil
}

// Replica is one Buyer Agent Server of a deployment. NewReplica opens the
// engine and binds it to its ownership map; Connect joins it to its peers;
// Run (or Start, its background form) drives journal pulls and lease
// renewals. The engine's table (Engine.Ownership) is the server's one map,
// so routing, pulling and fencing take one path: static deployments hold
// the never-leased epoch-1 shard%N map, leased ones advance it per grant.
type Replica struct {
	Engine     *recommend.Engine
	Router     *recommend.Router     // nil until Connect
	Replicator *recommend.Replicator // nil until Connect

	cfg   ReplicaConfig
	lease *coordinator.LeaseClient // nil without cfg.Renew

	startOnce sync.Once
	cancel    context.CancelFunc // set by Start; stops its Run
	done      chan struct{}      // closed when Start's Run has returned
}

// NewReplica opens server cfg.Self's engine and binds it to the static
// epoch-1 map every server (and the authority) starts from, so routing is
// consistent before the first lease lands. The engine of a
// multi-server deployment also serves its journal feed and compacts with
// the eager follower policy: it journals every record it applies from
// peers and rewrites whole shards on snapshot catch-up, so its WAL outgrows
// a lone server's.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	ec, replicated := cfg.Engine, cfg.Servers > 1
	var opts []recommend.Option
	if ec.Bus != nil {
		opts = append(opts, recommend.WithEventBus(ec.Bus, cfg.Self))
	}
	if ec.Shards > 0 {
		opts = append(opts, recommend.WithShards(ec.Shards))
	}
	if ec.StateDir != "" {
		opts = append(opts, recommend.WithPersistence(ec.StateDir))
		if ec.CompactRatio > 0 {
			pol := recommend.CompactionPolicy{Ratio: ec.CompactRatio}
			if replicated {
				pol = recommend.FollowerCompactionPolicy(ec.CompactRatio)
			}
			opts = append(opts, recommend.WithAutoCompaction(pol))
		}
	}
	if replicated {
		opts = append(opts, recommend.WithJournalFeed(0))
	}
	engine, err := recommend.Open(cfg.Catalog, append(opts, ec.Extra...)...)
	if err != nil {
		return nil, err
	}
	if _, err := engine.BindOwnership(recommend.NewOwnershipTable(recommend.StaticOwnership(engine.Shards(), cfg.Servers)), cfg.Self); err != nil {
		engine.Close()
		return nil, err
	}
	return &Replica{Engine: engine, cfg: cfg}, nil
}

// Connect joins the replica to its deployment: writers[i] is the write
// surface of server i and peers[i] its journal-tail surface (the entries at
// Self are ignored). Call it once, before Run.
func (r *Replica) Connect(writers []recommend.Writer, peers []recommend.Peer) error {
	router, err := recommend.NewRouter(r.Engine, r.cfg.Self, writers)
	if err != nil {
		return err
	}
	repl, err := recommend.NewReplicator(r.Engine, r.cfg.Self, peers, recommend.WithPullInterval(r.cfg.Pull))
	if err != nil {
		return err
	}
	r.Router, r.Replicator = router, repl
	if r.cfg.Renew != nil {
		r.lease = &coordinator.LeaseClient{
			Self:     r.cfg.Self,
			Table:    r.Engine.Ownership(),
			Renew:    r.cfg.Renew,
			Applied:  repl.AppliedSeqs,
			Interval: r.cfg.Lease,
			Publish:  r.cfg.OnTransition,
			OnError:  r.cfg.OnLeaseError,
		}
	}
	return nil
}

// LocalLinks returns the surfaces in-process server i reaches its peers
// through, ready for rs[i].Connect: each remote write is stamped with i's
// map epoch and admitted by the receiver's Fence under the shard lock (the
// in-process analogue of replnet's fenced frames), each tail reads the
// peer's engine directly.
func LocalLinks(rs []*Replica, i int) ([]recommend.Writer, []recommend.Peer) {
	writers := make([]recommend.Writer, len(rs))
	peers := make([]recommend.Peer, len(rs))
	for j, r := range rs {
		peers[j] = recommend.LocalPeer{Engine: r.Engine}
		if j != i {
			writers[j] = recommend.OwnedWriter{Local: r.Engine, Sender: rs[i].Engine.Ownership()}
		}
	}
	return writers, peers
}

// Run drives the replica until ctx is cancelled, then returns ctx.Err():
// the journal pull loop in the calling goroutine and, when leased, the
// renewal loop beside it. Both have stopped when Run returns.
func (r *Replica) Run(ctx context.Context) error {
	if r.Replicator == nil {
		return errors.New("platform: Replica.Run before Connect")
	}
	var renewals sync.WaitGroup
	if r.lease != nil {
		renewals.Add(1)
		go func() {
			defer renewals.Done()
			r.lease.Run(ctx)
		}()
	}
	err := r.Replicator.Run(ctx)
	renewals.Wait()
	return err
}

// Start launches Run in a background goroutine that Stop ends. It is
// idempotent.
func (r *Replica) Start() {
	r.startOnce.Do(func() {
		ctx, cancel := context.WithCancel(context.Background())
		r.cancel = cancel
		r.done = make(chan struct{})
		go func() {
			defer close(r.done)
			r.Run(ctx)
		}()
	})
}

// Stop ends the loops Start launched, if any, and waits for them; the
// engine stays open, so a stopped server can still be read and written.
func (r *Replica) Stop() {
	r.startOnce.Do(func() {}) // orders this read of cancel after Start's write
	if r.cancel != nil {
		r.cancel()
		<-r.done
	}
}

// Close stops the replica and closes its engine.
func (r *Replica) Close() error {
	r.Stop()
	return r.Engine.Close()
}

// Snapshot is this server's slice of the unified stats view.
func (r *Replica) Snapshot() ops.ServerSnapshot {
	return recommend.ServerSnapshot(r.cfg.Self, r.Engine, r.Replicator)
}

// Snapshots is the unified stats view of a deployment's servers.
func Snapshots(rs []*Replica) ops.Snapshot {
	servers := make([]ops.ServerSnapshot, len(rs))
	for i, r := range rs {
		servers[i] = r.Snapshot()
	}
	return ops.NewSnapshot(servers...)
}
