package loadgen

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"agentrec/internal/catalog"
	"agentrec/internal/ops"
	"agentrec/internal/platform"
	"agentrec/internal/profile"
	"agentrec/internal/recommend"
	"agentrec/internal/workload"
)

// world is what RunScenario drives: a Target plus the seeding, metrics,
// and convergence hooks the result document needs. Three in-process
// implementations: platformWorld (platform.Platform), and coldWorld and
// failoverWorld (platform.Replica servers with one delayed cold follower,
// or a gate that kills an owner).
type world interface {
	Target
	// Seed writes the community through server 0 (platform.Seed);
	// RunScenario drains the world after it so every replica reads it.
	Seed(profiles []*profile.Profile, purchases map[string][]string) error
	Metrics() ops.Snapshot
	Drain(ctx context.Context) (time.Duration, error)
	ReadEngine() *recommend.Engine // the engine shilling probes measure
	Close() error
}

// opExec interprets workload ops against an engine/writer pair. Shared by
// the in-process worlds; safe for concurrent use (the base profile map is
// read-only after construction).
type opExec struct {
	cat    *catalog.Catalog
	base   map[string]*profile.Profile // seeded profiles, for refresh ops
	shills atomic.Int64                // shill installs executed
}

func newOpExec(cat *catalog.Catalog, profiles []*profile.Profile) *opExec {
	x := &opExec{cat: cat, base: make(map[string]*profile.Profile, len(profiles))}
	for _, p := range profiles {
		x.base[p.UserID] = p
	}
	return x
}

func (x *opExec) apply(eng *recommend.Engine, w recommend.Writer, op workload.Op) error {
	switch op.Kind {
	case workload.OpRecommend:
		_, err := eng.Recommend(recommend.StrategyAuto, op.UserID, op.Category, op.TopN)
		return err
	case workload.OpSetProfile:
		// New consumers (churn, shills) observe with buy-strength evidence
		// so they enter the CF community immediately; refreshes add one
		// query-strength observation on top of the seeded profile.
		var p *profile.Profile
		behaviour := profile.BehaviourQuery
		if base := x.base[op.UserID]; base != nil && !op.NewUser {
			p = base.Clone()
		} else {
			p = profile.NewProfile(op.UserID)
			behaviour = profile.BehaviourBuy
		}
		for _, pid := range op.ObserveProducts {
			prod, err := x.cat.Get(pid)
			if err != nil {
				return err
			}
			if err := p.Observe(prod.Evidence(behaviour)); err != nil {
				return err
			}
		}
		if err := w.SetProfile(p); err != nil {
			return err
		}
		if op.Shill && op.ProductID != "" {
			x.shills.Add(1)
			return w.RecordPurchase(op.UserID, op.ProductID)
		}
		return nil
	case workload.OpRecordPurchase:
		return w.RecordPurchase(op.UserID, op.ProductID)
	default:
		return fmt.Errorf("loadgen: unknown op kind %v", op.Kind)
	}
}

// platformWorld drives a full in-process platform.Platform: reads hit each
// buyer server's engine round-robin, writes go through each server's own
// ownership router, exactly as buyer agent traffic would.
type platformWorld struct {
	p    *platform.Platform
	exec *opExec
	next atomic.Uint64
}

func newPlatformWorld(u *workload.Universe, profiles []*profile.Profile, servers int) (*platformWorld, error) {
	p, err := platform.New(platform.Config{BuyerServers: servers, Products: u.Products})
	if err != nil {
		return nil, err
	}
	return &platformWorld{p: p, exec: newOpExec(p.Union, profiles)}, nil
}

func (w *platformWorld) Do(_ context.Context, op workload.Op) error {
	r := w.p.Replicas[w.next.Add(1)%uint64(len(w.p.Replicas))]
	return w.exec.apply(r.Engine, r.Router, op)
}

func (w *platformWorld) Seed(profiles []*profile.Profile, purchases map[string][]string) error {
	return platform.Seed(w.p.Replicas[0], profiles, purchases)
}

func (w *platformWorld) Metrics() ops.Snapshot { return w.p.Metrics() }

func (w *platformWorld) Drain(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	err := w.p.SyncReplicas(ctx)
	return time.Since(start), err
}

func (w *platformWorld) ReadEngine() *recommend.Engine { return w.p.Engine }

func (w *platformWorld) Close() error { return w.p.Close() }

// ColdFollowerResult measures one cold server's paged bootstrap under
// sustained write load.
type ColdFollowerResult struct {
	WarmServers        int     `json:"warm_servers"`
	DelayS             float64 `json:"delay_s"`      // load ran this long before the join
	PageBytes          int     `json:"page_bytes"`   // snapshot page budget
	BootstrapMs        float64 `json:"bootstrap_ms"` // join → all shards caught up
	ShardsBootstrapped int     `json:"shards_bootstrapped"`
	PagesPulled        uint64  `json:"pages_pulled"`
	SnapshotsApplied   uint64  `json:"snapshots_applied"`
	PagedRestarts      uint64  `json:"paged_restarts"` // owner moved past the pin mid-transfer
	RecordsApplied     uint64  `json:"records_applied"`
	LagAfterBootstrap  uint64  `json:"lag_records_after_bootstrap"`
	UsersOnCold        int     `json:"users_on_cold"`
	UsersOnWarm        int     `json:"users_on_warm"`
}

// coldWorld is a statically owned deployment of warm+1 platform.Replica
// servers: the world is (re)started with the new server already owning its
// shard slice — the static shard%N ownership the platform uses — but the
// new server's *replicas* of everyone else's shards are empty. After DelayS
// of load it is connected to the owners under the scenario's snapshot page
// budget (LocalPeer.PageBytes) and one Sync bootstraps every shard through
// paged snapshots while writes keep flowing.
// Reads and writes round-robin the warm servers only.
type coldWorld struct {
	exec      *opExec
	replicas  []*platform.Replica // warm servers first, cold server last
	pageBytes int
	warm      int
	next      atomic.Uint64
}

func newColdWorld(s Scenario, u *workload.Universe, profiles []*profile.Profile, warm int) (*coldWorld, error) {
	cat := catalog.New()
	for _, p := range u.Products {
		if err := cat.Upsert(p); err != nil {
			return nil, err
		}
	}
	w := &coldWorld{exec: newOpExec(cat, profiles), warm: warm, pageBytes: s.ColdFollowerPageBytes}
	for i := 0; i <= warm; i++ {
		r, err := platform.NewReplica(platform.ReplicaConfig{
			Self: i, Servers: warm + 1, Catalog: cat,
			Pull: 50 * time.Millisecond,
		})
		if err != nil {
			w.Close()
			return nil, err
		}
		w.replicas = append(w.replicas, r)
	}
	for i, r := range w.replicas[:warm] {
		if err := r.Connect(platform.LocalLinks(w.replicas, i)); err != nil {
			w.Close()
			return nil, err
		}
		r.Start()
	}
	return w, nil
}

// Bootstrap joins the cold server: it is connected to its peers and one
// Sync pulls every non-owned shard cold → current. Called once,
// mid-run, by the scenario runner.
func (w *coldWorld) Bootstrap(ctx context.Context) (*ColdFollowerResult, error) {
	cold := w.replicas[w.warm]
	writers, peers := platform.LocalLinks(w.replicas, w.warm)
	for i, r := range w.replicas[:w.warm] {
		peers[i] = recommend.LocalPeer{Engine: r.Engine, PageBytes: w.pageBytes}
	}
	if err := cold.Connect(writers, peers); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cold.Replicator.Sync(ctx); err != nil {
		return nil, fmt.Errorf("loadgen: cold bootstrap: %w", err)
	}
	bootstrap := time.Since(start)
	cold.Start() // keep tailing for the rest of the run

	res := &ColdFollowerResult{
		WarmServers: w.warm,
		PageBytes:   w.pageBytes,
		BootstrapMs: float64(bootstrap) / float64(time.Millisecond),
	}
	st := cold.Replicator.Stats()
	for _, sh := range st.Shards {
		if sh.Owner == w.warm {
			continue
		}
		res.ShardsBootstrapped++
		res.PagesPulled += sh.Pages
		res.SnapshotsApplied += sh.Snapshots
		res.PagedRestarts += sh.Restarts
		res.RecordsApplied += sh.Records
	}
	res.LagAfterBootstrap = st.LagRecords
	return res, nil
}

func (w *coldWorld) Do(_ context.Context, op workload.Op) error {
	i := int(w.next.Add(1) % uint64(w.warm))
	return w.exec.apply(w.replicas[i].Engine, w.replicas[i].Router, op)
}

func (w *coldWorld) Seed(profiles []*profile.Profile, purchases map[string][]string) error {
	return platform.Seed(w.replicas[0], profiles, purchases)
}

func (w *coldWorld) Metrics() ops.Snapshot { return platform.Snapshots(w.replicas) }

func (w *coldWorld) Drain(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	var first error
	for _, r := range w.replicas {
		if r.Replicator == nil {
			continue // the cold server before its bootstrap
		}
		if err := r.Replicator.Sync(ctx); err != nil && first == nil {
			first = err
		}
	}
	return time.Since(start), first
}

func (w *coldWorld) ReadEngine() *recommend.Engine { return w.replicas[0].Engine }

func (w *coldWorld) Close() error { return closeReplicas(w.replicas) }

func closeReplicas(rs []*platform.Replica) error {
	var first error
	for _, r := range rs {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
