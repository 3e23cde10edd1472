package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"agentrec/internal/aglet"
	"agentrec/internal/atp"
	"agentrec/internal/recommend"
	"agentrec/internal/replnet"
	"agentrec/internal/security"
	"agentrec/internal/workload"
)

// replicated: 5 000 consumers on two engines joined only by replnet
// frames over atp on TCP loopback, wired like replnet's own test cluster:
// every server routes a write to the shard's owner and tails the other's
// journal each 100 ms. Half the ops are in-taste recommends, round-robin
// over both servers, a quarter set_profile, a quarter purchase. replnet
// and atp (one TCP dial per frame), the router and the replicator do the
// distinctive work, and reads run beside writes: every write dirties a
// shard view, so Engine.Snapshot is rebuilt here where browse reuses it.

// replicatedRate is the frozen rate of the traced run's open loop: a
// quarter of the reference run's closed-loop throughput, two significant
// figures (see browseRate).
const replicatedRate = 79

// snapshotPageBytes shrinks replnet's frame budget so that the cold
// joiner's shard snapshots travel in pages.
const snapshotPageBytes = 256 << 10

func replicatedInputs(e *env) (*inputs, error) {
	return generate(e.seed,
		workload.Config{Users: e.users(5000), Products: 1200, Categories: 16},
		workload.TrafficConfig{MixRecommend: 0.5, MixSetProfile: 0.25, MixPurchase: 0.25},
		0, altScan)
}

type replServer struct {
	eng    *recommend.Engine
	host   *aglet.Host
	srv    *atp.Server
	router *recommend.Router
	repl   *recommend.Replicator
}

func (s *replServer) Close() error {
	var first error
	if s.repl != nil {
		first = s.repl.Close()
	}
	for _, c := range []io.Closer{s.srv, s.host, s.eng} {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

type replWorld struct {
	signer  *security.Signer
	client  *atp.Client
	servers []*replServer
}

func (w *replWorld) Close() error {
	var first error
	for _, s := range w.servers {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// serve opens one engine with a journal feed behind an atp listener.
func (w *replWorld) serve(in *inputs, self, servers int) (*replServer, error) {
	eng, err := recommend.Open(in.universe.Catalog, recommend.WithJournalFeed(0))
	if err != nil {
		return nil, err
	}
	host := aglet.NewHost(fmt.Sprintf("buyer-%d", self), aglet.NewRegistry(), aglet.WithTransport(w.client))
	srv, err := atp.Serve(host, w.signer, "127.0.0.1:0")
	if err != nil {
		host.Close()
		eng.Close()
		return nil, err
	}
	srv.SetJournalHandler(replnet.Handler(eng, self, servers))
	return &replServer{eng: eng, host: host, srv: srv}, nil
}

// sync runs one catch-up pass on every server.
func (w *replWorld) sync(ctx context.Context) error {
	for _, s := range w.servers {
		if err := s.repl.Sync(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (w *replWorld) lag() uint64 {
	var lag uint64
	for _, s := range w.servers {
		lag += s.repl.Stats().Lag()
	}
	return lag
}

func buildReplicated(in *inputs) (*replWorld, error) {
	const n = 2
	signer := security.NewSigner([]byte("bench-replicated"))
	w := &replWorld{signer: signer, client: atp.NewClient(signer)}
	for i := range n {
		s, err := w.serve(in, i, n)
		if err != nil {
			w.Close()
			return nil, err
		}
		w.servers = append(w.servers, s)
	}
	for i, s := range w.servers {
		writers := make([]recommend.Writer, n)
		peers := make([]recommend.Peer, n)
		for j, other := range w.servers {
			if j != i {
				writers[j] = replnet.NewWriter(context.Background(), w.client, other.srv.Addr())
				peers[j] = replnet.NewPeer(w.client, other.srv.Addr())
			}
		}
		var err error
		if s.router, err = recommend.NewRouter(s.eng, i, writers); err == nil {
			s.repl, err = recommend.NewReplicator(s.eng, i, peers)
		}
		if err != nil {
			w.Close()
			return nil, err
		}
		s.repl.Start()
	}
	// Seeded in steps with a catch-up pass after each, so that a follower
	// is never further behind than one journal tail carries. Seeded in one
	// burst, a follower caught up by tail or by paged snapshot as its 100 ms
	// pulls happened to fall, and the live heap moved by 8 % with it.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	router := w.servers[0].router
	for chunk := range slices.Chunk(in.profiles, seedStep) {
		err := router.SetProfiles(chunk)
		for _, p := range chunk {
			for _, pid := range in.purchases[p.UserID] {
				if err == nil {
					err = router.RecordPurchase(p.UserID, pid)
				}
			}
		}
		if err == nil {
			err = w.sync(ctx)
		}
		if err != nil {
			w.Close()
			return nil, err
		}
	}
	return w, nil
}

// seedStep is how many consumers buildReplicated installs between catch-up
// passes: their records are well under snapshotPageBytes per shard.
const seedStep = 250

func runReplicated(e *env, r *report) error {
	in, err := replicatedInputs(e)
	if err != nil {
		return err
	}
	defer replnet.SetMaxTailBytes(snapshotPageBytes)()
	before := liveHeap()
	w, err := setUp(e, r, func() (*replWorld, error) { return buildReplicated(in) }, nil)
	if err != nil {
		return err
	}
	defer w.Close()

	n := uint64(len(w.servers))
	cat := in.universe.Catalog
	do := func(i uint64) (class, error) {
		op, c := in.op(i)
		self := int(i % n)
		s := w.servers[self]
		if c == classSetProfile && recommend.OwnerOf(s.eng.ShardOf(op.UserID), int(n)) != self {
			c = classForward
		}
		return c, in.apply(cat, autoRead(s.eng), s.router, op)
	}
	// The followers apply what the warm-up wrote before the heap is read.
	var syncErr error
	base := e.warmUp(r, 800, do, before, func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		syncErr = w.sync(ctx)
	})
	if syncErr != nil {
		return syncErr
	}

	if e.trace {
		if err := replicatedLayers(e, r, in, w, base, do); err != nil {
			return err
		}
	} else {
		closed := closedLoop(e.workers, e.dur(1), base, do)
		r.count(closed)
		r.endToEnd(closed, closed.lat[classRead], closed.lat[classForward])
	}
	return replicatedConverges(e, r, in, w)
}

// replicatedConverges drains replication, joins a cold third engine over
// TCP, and checks that all three hold the same community and answers.
func replicatedConverges(e *env, r *report, in *inputs, w *replWorld) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	t0 := time.Now()
	for w.sync(ctx) == nil && w.lag() > 0 {
	}
	if err := w.sync(ctx); err != nil {
		return err
	}
	drain := time.Since(t0)

	// The joiner follows every shard: the two servers' static map names
	// no third owner, so it is handed that map rather than one of its own.
	n := len(w.servers)
	cold, err := w.serve(in, n, n)
	if err != nil {
		return err
	}
	defer cold.Close()
	peers := make([]recommend.Peer, n+1)
	for i, s := range w.servers {
		peers[i] = replnet.NewPeer(w.client, s.srv.Addr())
	}
	owners := recommend.NewOwnershipTable(recommend.StaticOwnership(cold.eng.Shards(), n))
	cold.repl, err = recommend.NewReplicator(cold.eng, n, peers, recommend.PullWithOwnership(owners))
	if err != nil {
		return err
	}
	t0 = time.Now()
	if err := cold.repl.Sync(ctx); err != nil {
		return fmt.Errorf("cold join: %w", err)
	}
	bootstrap := time.Since(t0)

	digests := make(map[string]bool)
	users := make(map[int]bool)
	for _, s := range append(slices.Clone(w.servers), cold) {
		d, err := answersDigest(in, autoRead(s.eng))
		if err != nil {
			return err
		}
		digests[d] = true
		users[len(s.eng.Users())] = true
	}
	lag := w.lag() + cold.repl.Stats().Lag()
	r.check("replicas_converge", lag == 0 && len(digests) == 1 && len(users) == 1,
		"lag %d; consumers held %v and answer digests %v on the two servers and the cold joiner",
		lag, slices.Collect(maps.Keys(users)), slices.Collect(maps.Keys(digests)))

	if e.trace {
		var pages uint64
		for _, sh := range cold.repl.Stats().Shards {
			pages += sh.Pages
		}
		r.set("recommend.drain_ms", float64(drain)/nsPerMs, 1)
		r.set("recommend.bootstrap_ms", float64(bootstrap)/nsPerMs, 1)
		r.set("recommend.snapshot_pages", float64(pages), 0)
		return replicatedWire(r, in, w)
	}
	return nil
}

// replicatedLayers is the traced run: the routing ladder under load, then
// an open loop beside a prober that times how long an acknowledged write
// takes to become readable on the follower.
func replicatedLayers(e *env, r *report, in *inputs, w *replWorld, base uint64, plain doFunc) error {
	tr := newTracer()
	n := len(w.servers)
	cat := in.universe.Catalog
	direct := make([]*replnet.Writer, n) // direct[j] writes to server j, as a router's remote writer does
	for j, s := range w.servers {
		direct[j] = replnet.NewWriter(context.Background(), w.client, s.srv.Addr())
	}
	ladder := func(i uint64) (class, error) {
		op, c := in.op(i)
		self := int(i % uint64(n))
		s := w.servers[self]
		var first firstError
		keep := first.keep
		switch c {
		case classRead:
			// The snapshot first: the first one after a write pays for
			// rebuilding the dirtied shard views, and here writes never stop.
			tr.do("recommend.snapshot", noParent, i, func() { s.eng.Snapshot() })
			tr.do("recommend.recommend", noParent, i, func() {
				_, e := s.eng.Recommend(recommend.StrategyAuto, op.UserID, op.Category, in.topN)
				keep(e)
			})
		case classSetProfile:
			prof, err := in.refreshed(cat, op)
			if err != nil {
				return c, err
			}
			owner := recommend.OwnerOf(s.eng.ShardOf(op.UserID), n)
			if owner == self {
				tr.do("recommend.route_local", noParent, i, func() { keep(s.router.SetProfile(prof)) })
				break
			}
			c = classForward
			root := tr.do("recommend.route_forward", noParent, i, func() { keep(s.router.SetProfile(prof)) })
			rtt := tr.do("replnet.write_rtt", root, i, func() { keep(direct[owner].SetProfile(prof)) })
			tr.do("atp.ping_rtt", rtt, i, func() { keep(w.client.Ping(context.Background(), w.servers[owner].srv.Addr())) })
		default:
			keep(s.router.RecordPurchase(op.UserID, op.ProductID))
		}
		return c, first.err
	}
	base = e.layerPhases(r, tr, base, classRead, plain, ladder,
		"recommend.recommend", "recommend.route_local", "recommend.route_forward")

	// Markers are new consumers on shards server 0 owns, written through
	// server 0 and looked for on server 1.
	var (
		visible []int64
		lags    []float64
		stop    = make(chan struct{})
		wg      sync.WaitGroup
		probeEr error
	)
	owner, follower := w.servers[0], w.servers[1]
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(97 * time.Millisecond) // not the replicators' 100 ms: the marker's phase against the pull must drift
		defer tick.Stop()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			id := fmt.Sprintf("marker-%d-%06d", in.seed, k)
			if recommend.OwnerOf(owner.eng.ShardOf(id), n) != 0 {
				continue
			}
			marker := in.profiles[k%len(in.profiles)].Clone()
			marker.UserID = id
			if probeEr = owner.router.SetProfile(marker); probeEr != nil {
				return
			}
			acked := time.Now()
			for {
				if _, err := follower.eng.Profile(id); err == nil {
					visible = append(visible, int64(time.Since(acked)))
					break
				}
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
				}
			}
		}
	}()
	// Lag is what the owner has journaled and the follower has not applied,
	// read off both sides each 10 ms; a replicator's own Stats only knows
	// the head it saw at its last pull.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			heads, applied := owner.eng.FeedHeads(), follower.repl.AppliedSeqs()
			behind := 0.0
			for shard, head := range heads {
				if recommend.OwnerOf(shard, n) == 0 && head > applied[shard] {
					behind += float64(head - applied[shard])
				}
			}
			lags = append(lags, behind)
		}
	}()
	open, err := openLoop(context.Background(), e.workers, replicatedRate, e.dur(0.25), base, plain)
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	if probeEr != nil {
		return probeEr
	}
	r.count(open)
	r.setTime("loadgen.late_p99_ms", open.late, 0.99)
	r.setTime("primary_p95_ms", open.lat[classRead], 0.95)
	r.setTime("repl_visible_p50_ms", visible, 0.5)
	mean := 0.0
	for _, l := range lags {
		mean += l / float64(len(lags))
	}
	r.set("recommend.lag_records_mean", mean, len(lags))
	if e.spans != "" {
		return tr.write(e.spans)
	}
	return nil
}

// dialCounter forwards TCP connections to a backend and counts them:
// atp's client does not say how many connections it opened.
type dialCounter struct {
	ln      net.Listener
	backend string
	dials   atomic.Int64
	wg      sync.WaitGroup
}

func countDials(backend string) (*dialCounter, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &dialCounter{ln: ln, backend: backend}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			d.dials.Add(1)
			d.wg.Add(1)
			go func() {
				defer d.wg.Done()
				defer conn.Close()
				up, err := net.Dial("tcp", d.backend)
				if err != nil {
					return
				}
				defer up.Close()
				// Either copy ends when its side closes; the deferred
				// closes then end the other.
				go io.Copy(up, conn)
				io.Copy(conn, up)
			}()
		}
	}()
	return d, nil
}

func (d *dialCounter) Close() error {
	err := d.ln.Close()
	d.wg.Wait()
	return err
}

// replicatedWire times the wire on an idle cluster: the fence, an idle
// journal tail, an idle Sync, one snapshot page, and what one forwarded
// write costs in bytes and connections.
func replicatedWire(r *report, in *inputs, w *replWorld) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	s0, s1 := w.servers[0], w.servers[1]
	n := len(w.servers)

	table := recommend.NewOwnershipTable(recommend.StaticOwnership(s0.eng.Shards(), n))
	const fences = 200000
	t0 := time.Now()
	for i := range fences {
		if err := table.Fence(table.Epoch(), (i*n)%s0.eng.Shards(), 0); err != nil {
			return err
		}
	}
	r.set("recommend.fence_ns", float64(time.Since(t0))/fences, fences)

	// A shard server 1 owns, tailed the way server 0's replicator does.
	shard := 1
	peer := replnet.NewPeer(w.client, s1.srv.Addr())
	head, err := peer.JournalTail(ctx, shard, 0, 0)
	if err != nil {
		return err
	}
	var tails, syncs, pagesNs []int64
	for range 50 {
		t0 := time.Now()
		if _, err := peer.JournalTail(ctx, shard, head.Epoch, head.Seq); err != nil {
			return err
		}
		tails = append(tails, int64(time.Since(t0)))
	}
	r.setTime("replnet.tail_rtt_us", tails, 0.5)
	for range 5 {
		t0 := time.Now()
		if err := s0.repl.Sync(ctx); err != nil {
			return err
		}
		syncs = append(syncs, int64(time.Since(t0)))
	}
	r.setTime("recommend.sync_idle_ms", syncs, 0.5)
	if !head.Paged {
		return errors.New("a cold tail was not paged: the shard snapshot fits one frame")
	}
	for range 5 {
		t0 := time.Now()
		if _, err := peer.SnapshotPage(ctx, shard, head.Epoch, head.Seq, ""); err != nil {
			return err
		}
		pagesNs = append(pagesNs, int64(time.Since(t0)))
	}
	r.setTime("replnet.page_rtt_ms", pagesNs, 0.5)

	proxy, err := countDials(s1.srv.Addr())
	if err != nil {
		return err
	}
	defer proxy.Close()
	client := atp.NewClient(w.signer)
	writer := replnet.NewWriter(ctx, client, proxy.ln.Addr().String())
	writes := 0
	for _, prof := range in.profiles {
		if recommend.OwnerOf(s1.eng.ShardOf(prof.UserID), n) != 1 {
			continue
		}
		if err := writer.SetProfile(prof); err != nil {
			return err
		}
		if writes++; writes == 50 {
			break
		}
	}
	_, _, sent := client.Stats()
	r.set("replnet.bytes_per_write", float64(sent)/float64(writes), writes)
	r.set("atp.dials_per_write", float64(proxy.dials.Load())/float64(writes), writes)
	return nil
}
