package loadgen

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"agentrec/internal/catalog"
	"agentrec/internal/coordinator"
	"agentrec/internal/platform"
	"agentrec/internal/profile"
	"agentrec/internal/recommend"
	"agentrec/internal/workload"
)

// opExec interprets workload ops against an engine/writer pair. Every
// write op is one Writer.Observe: the Profile Agent's Fig 4.4 update of the
// profile the owner stores, with the op's sale, if any, in the same write.
// Safe for concurrent use.
type opExec struct {
	cat    *catalog.Catalog
	shills atomic.Int64 // shill installs executed
}

func (x *opExec) apply(eng *recommend.Engine, w recommend.Writer, op workload.Op) error {
	switch op.Kind {
	case workload.OpRecommend:
		_, err := eng.Recommend(recommend.StrategyAuto, op.UserID, op.Category, op.TopN)
		return err
	case workload.OpSetProfile:
		// A refresh adds query-strength evidence to the stored profile; a
		// new consumer (churn, shill) starts from none and observes at buy
		// strength, so it enters the CF community at once.
		behaviour := profile.BehaviourQuery
		if op.NewUser {
			behaviour = profile.BehaviourBuy
		}
		evs := make([]profile.Evidence, len(op.ObserveProducts))
		for i, pid := range op.ObserveProducts {
			prod, err := x.cat.Get(pid)
			if err != nil {
				return err
			}
			evs[i] = prod.Evidence(behaviour)
		}
		var sales []recommend.PurchasePair
		if op.Shill && op.ProductID != "" {
			sales = []recommend.PurchasePair{{UserID: op.UserID, ProductID: op.ProductID}}
		}
		if err := w.Observe(op.UserID, evs, sales); err != nil {
			return err
		}
		if sales != nil {
			x.shills.Add(1)
		}
		return nil
	case workload.OpRecordPurchase:
		prod, err := x.cat.Get(op.ProductID)
		if err != nil {
			return err
		}
		return w.Observe(op.UserID, []profile.Evidence{prod.Evidence(profile.BehaviourBuy)},
			[]recommend.PurchasePair{{UserID: op.UserID, ProductID: op.ProductID}})
	default:
		return fmt.Errorf("loadgen: unknown op kind %v", op.Kind)
	}
}

// world is what RunScenario drives: platform.Replica servers over one
// catalogue, each behind a liveness gate and joined to the others by
// platform.LocalLinks, so writes route to the shard owner and every server
// tails the owners' journals. Servers 0..serving-1 take driver traffic
// round-robin. The Scenario decides the rest:
//   - ColdFollower adds one more server that owns its static shard slice
//     from the start but joins — connects and bootstraps every other shard
//     through paged snapshots — only mid-run (Bootstrap);
//   - Failover leases ownership from an in-process coordinator.Authority
//     over at least three servers and kills the owner of the most shards
//     mid-run (Kill, failover.go).
type world struct {
	s        Scenario
	exec     *opExec
	replicas []*platform.Replica
	stops    []func()       // per server: cancel its Run and wait; nil until started
	gates    []atomic.Int32 // one liveness gate per server (failover.go)
	serving  int
	next     atomic.Uint64

	cold *ColdFollowerResult // the cold join's measurement, set by Bootstrap

	// The owner kill's bookkeeping (failover.go).
	auth        *coordinator.Authority // nil under the static map
	blocked     atomic.Int64
	ackedWrites atomic.Int64
	ackedMu     sync.Mutex
	acked       map[string]bool // users with >=1 acknowledged write
	probeWG     sync.WaitGroup
	resMu       sync.Mutex
	killedW     time.Time // when the victim's gate closed to writes
	recovW      time.Time // zero until a write begun after killedW lands
	probeEr     error
}

// newWorld boots the scenario's servers, seeds nothing, and starts every
// server but a cold one. stateDir, if set, roots one durable engine
// directory per server (server-<i>).
func newWorld(s Scenario, u *workload.Universe, serving int, stateDir string) (w *world, err error) {
	cat := catalog.New()
	for _, p := range u.Products {
		if err := cat.Upsert(p); err != nil {
			return nil, err
		}
	}
	pull, servers := recommend.DefaultPullInterval, serving
	switch {
	case s.ColdFollower:
		pull, servers = 50*time.Millisecond, serving+1
	case s.Failover:
		// A promotion needs a follower left over after the kill.
		serving = max(serving, 3)
		pull, servers = 25*time.Millisecond, serving
	}
	w = &world{
		s: s, exec: &opExec{cat: cat}, serving: serving,
		stops: make([]func(), servers),
		gates: make([]atomic.Int32, servers),
		acked: make(map[string]bool),
	}
	defer func() {
		if err != nil {
			w.Close()
		}
	}()
	for i := 0; i < servers; i++ {
		rc := platform.ReplicaConfig{Self: i, Servers: servers, Catalog: cat, Pull: pull}
		if s.Failover {
			rc.Renew = func(_ context.Context, server int, applied []uint64) (coordinator.LeaseGrant, error) {
				// A write-dead server's renewal never reaches the authority
				// — exactly how a crashed process misses its heartbeats.
				if w.gates[server].Load() != gateLive {
					return coordinator.LeaseGrant{}, errServerDown
				}
				return w.auth.Renew(server, applied)
			}
		}
		if stateDir != "" {
			rc.Engine.StateDir = filepath.Join(stateDir, "server-"+strconv.Itoa(i))
		}
		r, err := platform.NewReplica(rc)
		if err != nil {
			return w, err
		}
		w.replicas = append(w.replicas, r)
	}
	if s.Failover {
		if w.auth, err = coordinator.NewOwnershipAuthority(coordinator.OwnershipConfig{
			Shards: w.replicas[0].Engine.Shards(), Servers: servers, LeaseTTL: time.Duration(s.FailoverLeaseMs) * time.Millisecond,
		}); err != nil {
			return w, err
		}
	}
	for i := range w.replicas[:serving] {
		if err := w.connect(i); err != nil {
			return w, err
		}
	}
	for i := range w.replicas[:serving] {
		w.start(i)
	}
	return w, nil
}

// start runs server i's loops until stops[i] cancels them and waits.
func (w *world) start(i int) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { w.replicas[i].Run(ctx); close(done) }()
	w.stops[i] = func() { cancel(); <-done }
}

// connect joins server i to the others through their gates. Tails are read
// under the cold join's snapshot page budget (unbounded without one).
func (w *world) connect(i int) error {
	writers, peers := platform.LocalLinks(w.replicas, i)
	for j := range w.gates {
		gate := &w.gates[j]
		if j != i {
			writers[j] = gatedWriter{gate: gate, w: writers[j]}
		}
		peers[j] = gatedPeer{gate: gate, p: recommend.LocalPeer{Engine: w.replicas[j].Engine, PageBytes: w.s.ColdFollowerPageBytes}}
	}
	return w.replicas[i].Connect(writers, peers)
}

// liveServer picks the next round-robin serving server whose gate is live.
func (w *world) liveServer() int {
	n := int(w.next.Add(1))
	for k := 0; k < w.serving; k++ {
		if i := (n + k) % w.serving; w.gates[i].Load() == gateLive {
			return i
		}
	}
	return 0
}

// Do executes one driver op on a live server, retrying writes that hit the
// ownership fence until the promoted owner accepts them: an open-loop
// client does not lose a write to a failover, it waits it out, and the
// stall lands in the latency histogram where it belongs. Only a kill makes
// such refusals; a static world never retries.
func (w *world) Do(ctx context.Context, op workload.Op) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		begun := time.Now()
		r := w.replicas[w.liveServer()]
		err := w.exec.apply(r.Engine, r.Router, op)
		if err == nil {
			if w.s.Failover && (op.Kind == workload.OpSetProfile || op.Kind == workload.OpRecordPurchase) {
				w.noteAcked(op.UserID, begun)
			}
			return nil
		}
		if !isOwnerUnavailable(err) || time.Now().After(deadline) {
			return err
		}
		w.blocked.Add(1)
		select {
		case <-ctx.Done():
			return err
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// live lists the connected servers whose gate is live.
func (w *world) live() []int {
	var live []int
	for i, r := range w.replicas {
		if r.Replicator != nil && w.gates[i].Load() == gateLive {
			live = append(live, i)
		}
	}
	return live
}

// Drain runs one catch-up pass on every connected live server, once the
// failover probe's last write (if any) has landed.
func (w *world) Drain(ctx context.Context) error {
	w.probeWG.Wait()
	var errs []error
	for _, i := range w.live() {
		errs = append(errs, w.replicas[i].Replicator.Sync(ctx))
	}
	return errors.Join(errs...)
}

// Close stops every started server's loops, then closes the engines.
func (w *world) Close() error {
	for _, stop := range w.stops {
		if stop != nil {
			stop()
		}
	}
	var errs []error
	for _, r := range w.replicas {
		errs = append(errs, r.Engine.Close())
	}
	return errors.Join(errs...)
}

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
	RecordsApplied     uint64  `json:"records_applied"`
	LagAfterBootstrap  uint64  `json:"lag_records_after_bootstrap"`
	UsersOnCold        int     `json:"users_on_cold"`
	UsersOnWarm        int     `json:"users_on_warm"`
}

// Bootstrap joins the cold server (the last one): it is connected to its
// peers and one Sync pulls every non-owned shard cold → current, paged
// under the scenario's page budget, while writes keep flowing. Called once,
// mid-run, by the scenario runner.
func (w *world) Bootstrap(ctx context.Context) error {
	cold := w.replicas[w.serving]
	if err := w.connect(w.serving); err != nil {
		return err
	}
	start := time.Now()
	if err := cold.Replicator.Sync(ctx); err != nil {
		return fmt.Errorf("loadgen: cold bootstrap: %w", err)
	}
	bootstrap := time.Since(start)
	w.start(w.serving) // keep tailing for the rest of the run

	res := &ColdFollowerResult{
		WarmServers: w.serving,
		DelayS:      w.s.ColdFollowerDelayS,
		PageBytes:   w.s.ColdFollowerPageBytes,
		BootstrapMs: float64(bootstrap) / float64(time.Millisecond),
	}
	st := cold.Replicator.Stats()
	for _, sh := range st.Shards {
		if sh.Owner == w.serving {
			continue
		}
		res.ShardsBootstrapped++
		res.PagesPulled += sh.Pages
		res.SnapshotsApplied += sh.Snapshots
		res.RecordsApplied += sh.Records
	}
	res.LagAfterBootstrap = st.LagRecords
	w.cold = res
	return nil
}
