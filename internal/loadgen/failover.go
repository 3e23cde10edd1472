package loadgen

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"agentrec/internal/profile"
	"agentrec/internal/recommend"
)

// FailoverResult measures one kill-the-owner chaos drill: how long writes
// to the dead owner's shards were unavailable, that every acknowledged
// write survived the promotion, that the deposed owner's replayed writes
// were fenced, and that the survivors' replicas did not diverge.
type FailoverResult struct {
	Victim                int     `json:"victim"`                  // server index that was killed
	KilledAtS             float64 `json:"killed_at_s"`             // load ran this long before the kill
	LeaseTTLMs            int     `json:"lease_ttl_ms"`            // coordinator lease TTL in force
	PromotedEpoch         uint64  `json:"promoted_epoch"`          // map epoch after the failover transition(s)
	ShardsMoved           int     `json:"shards_moved"`            // shards not on their static owner at the end
	WriteUnavailabilityMs float64 `json:"write_unavailability_ms"` // kill -> first accepted write to a victim shard
	BlockedWrites         int64   `json:"blocked_writes"`          // write attempts fenced during the window (then retried)
	StaleWritesRejected   int     `json:"stale_writes_rejected"`   // deposed owner's replayed writes, all rejected
	AckedWrites           int64   `json:"acked_writes"`            // driver writes acknowledged over the whole run
	LostAckedWrites       int     `json:"lost_acked_writes"`       // acked writes missing from a survivor afterwards (must be 0)
	DivergentShards       int     `json:"divergent_shards"`        // shards whose survivor replicas differ (must be 0)
}

// Server liveness states of the staged kill. A real owner crash is not
// instantaneous from the cluster's point of view: the process stops
// accepting traffic first (connections refused), while its already-durable
// journal is still drainable by followers until the machine is gone. The
// gate models exactly that: gateWriteDead refuses writes and lease
// renewals but still serves journal tails; gateDead serves nothing.
const (
	gateLive int32 = iota
	gateWriteDead
	gateDead
)

// errServerDown is the in-process stand-in for "connection refused".
var errServerDown = errors.New("loadgen: server down (failover chaos)")

// gatedWriter fronts one server's fenced write surface with its liveness
// gate, so a killed server refuses routed writes like a dead TCP peer.
type gatedWriter struct {
	gate *atomic.Int32
	w    recommend.Writer
}

func (g gatedWriter) check() error {
	if g.gate.Load() != gateLive {
		return errServerDown
	}
	return nil
}

func (g gatedWriter) SetProfile(p *profile.Profile) error {
	if err := g.check(); err != nil {
		return err
	}
	return g.w.SetProfile(p)
}

func (g gatedWriter) SetProfiles(ps []*profile.Profile) error {
	if err := g.check(); err != nil {
		return err
	}
	return g.w.SetProfiles(ps)
}

func (g gatedWriter) RecordPurchase(userID, productID string) error {
	return g.RecordPurchaseAt(userID, productID, time.Time{})
}

func (g gatedWriter) RecordPurchaseAt(userID, productID string, at time.Time) error {
	if err := g.check(); err != nil {
		return err
	}
	return g.w.RecordPurchaseAt(userID, productID, at)
}

// gatedPeer fronts one server's journal-tail surface with its gate: a
// write-dead server still serves tails (its journal survives the crash
// until the machine is reclaimed), a dead one serves nothing.
type gatedPeer struct {
	gate *atomic.Int32
	p    recommend.Peer
}

func (g gatedPeer) JournalTail(ctx context.Context, shard int, epoch, since uint64) (recommend.TailResult, error) {
	if g.gate.Load() == gateDead {
		return recommend.TailResult{}, errServerDown
	}
	return g.p.JournalTail(ctx, shard, epoch, since)
}

func (g gatedPeer) SnapshotPage(ctx context.Context, shard int, epoch, seq uint64, token string) (recommend.SnapshotPage, error) {
	if g.gate.Load() == gateDead {
		return recommend.SnapshotPage{}, errServerDown
	}
	return g.p.SnapshotPage(ctx, shard, epoch, seq, token)
}

// isOwnerUnavailable classifies the errors a write hits while its shard's
// ownership is in flux: the dead server itself, a lapsed lease, or an
// epoch the cluster has moved past. These are the retryable window the
// drill measures; anything else is a real failure.
func isOwnerUnavailable(err error) bool {
	return errors.Is(err, errServerDown) ||
		errors.Is(err, recommend.ErrLeaseExpired) ||
		errors.Is(err, recommend.ErrStaleEpoch) ||
		errors.Is(err, recommend.ErrNotOwner)
}

// victim is the server the drill kills: static shard%N ownership gives
// server 0 the most shards.
const victim = 0

// noteAcked records one acknowledged driver write for the lost-write audit.
// A write to a victim-owned shard after the kill also closes the
// unavailability window.
func (w *world) noteAcked(user string) {
	w.ackedWrites.Add(1)
	w.ackedMu.Lock()
	w.acked[user] = true
	w.ackedMu.Unlock()
	if recommend.OwnerOf(w.replicas[0].Engine.ShardOf(user), len(w.replicas)) == victim {
		w.noteRecovered()
	}
}

// noteRecovered marks the unavailability window closed on the first write
// accepted for a victim-owned shard after the kill — a driver write that
// happened to land there, or the dedicated probe loop. Writes to shards the
// survivors own are accepted throughout and say nothing about the window,
// so noteAcked only calls this for victim-shard writes.
func (w *world) noteRecovered() {
	w.resMu.Lock()
	if !w.killedW.IsZero() && w.recovW.IsZero() {
		w.recovW = time.Now()
	}
	w.resMu.Unlock()
}

// userOnShard generates a deterministic user id living on shard, with a
// prefix that cannot collide with workload-generated consumers.
func (w *world) userOnShard(prefix string, shard int) string {
	for k := 0; ; k++ {
		id := prefix + "-" + strconv.Itoa(shard) + "-" + strconv.Itoa(k)
		if w.replicas[0].Engine.ShardOf(id) == shard {
			return id
		}
	}
}

// victimShard returns one shard the victim owns under the static map.
func (w *world) victimShard() int {
	static := recommend.StaticOwnership(w.replicas[0].Engine.Shards(), len(w.replicas))
	for s, owner := range static.Assign {
		if owner == victim {
			return s
		}
	}
	return 0
}

// Kill executes the staged owner death: refuse writes and lease renewals,
// drain the victim's already-acknowledged journal into the survivors (the
// crashed process's durable tail outlives its write path), then take the
// journal away too. A probe loop pinned to a victim-owned shard measures
// the window until the promoted owner accepts writes again. Called once,
// mid-run, by the scenario runner.
func (w *world) Kill(ctx context.Context) error {
	w.resMu.Lock()
	w.killedW = time.Now()
	w.resMu.Unlock()
	w.gates[victim].Store(gateWriteDead)
	// The write path is closed, so the victim's feed heads are final: one
	// survivor pass drains every acknowledged record before the journal
	// disappears. The authority cannot promote before this completes — the
	// victim's lease has a full TTL left and promotion needs the lapse.
	for i, r := range w.replicas {
		if i == victim {
			continue
		}
		if err := r.Replicator.Sync(ctx); err != nil {
			return fmt.Errorf("draining victim journal into server %d: %w", i, err)
		}
	}
	w.gates[victim].Store(gateDead)
	w.replicas[victim].Stop()
	// The probe bounds its own lifetime: Finish waits for it, and a run
	// whose caller context never cancels must not hang on a window that
	// never closes — it must report it.
	pctx, cancel := context.WithTimeout(ctx, time.Minute)
	w.probeWG.Add(1)
	go func() {
		defer cancel()
		w.probe(pctx)
	}()
	return nil
}

// probe writes to one victim-owned shard every few milliseconds until a
// write is accepted, bounding the write-unavailability window from above.
func (w *world) probe(ctx context.Context) {
	defer w.probeWG.Done()
	user := w.userOnShard("failover-probe", w.victimShard())
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		i := w.liveServer()
		err := w.replicas[i].Router.SetProfile(profile.NewProfile(user))
		if err == nil {
			w.noteRecovered()
			return
		}
		if isOwnerUnavailable(err) {
			w.blocked.Add(1)
			continue
		}
		w.resMu.Lock()
		w.probeEr = err
		w.resMu.Unlock()
		return
	}
}

// replayStaleWrites is the deposed owner waking up and replaying buffered
// writes through its own (stale, lapsed) view of the world — one write per
// shard, so both rejection paths fire: its lapsed lease refuses the shards
// it thinks it still owns, and the survivors' fences refuse the stale
// epoch on everything it forwards. Returns the rejected count and the
// replays that were wrongly accepted.
func (w *world) replayStaleWrites() (rejected, accepted int) {
	for s := 0; s < w.replicas[0].Engine.Shards(); s++ {
		user := w.userOnShard("failover-replay", s)
		if err := w.replicas[victim].Router.SetProfile(profile.NewProfile(user)); err != nil {
			rejected++
		} else {
			accepted++
		}
	}
	return rejected, accepted
}

// shardFingerprint reduces one shard's full state on e to an
// order-insensitive hash: profiles, purchase edges, and sell totals each
// hash independently and XOR together, page by page of the same paged
// transfer a follower would run. The engines are quiescent by now; a cut
// that moved mid-transfer is reported, not retried.
func shardFingerprint(e *recommend.Engine, shard int) (uint64, error) {
	item := func(parts ...string) uint64 {
		h := fnv.New64a()
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0})
		}
		return h.Sum64()
	}
	var fp uint64
	var pin recommend.SnapshotPage // epoch 0 matches no feed: the first reply opens a fresh cut
	for token := ""; ; {
		pg, err := e.SnapshotPage(shard, pin.Epoch, pin.Seq, token, 0)
		if err != nil {
			return 0, err
		}
		if token == "" {
			pin = pg
		} else if pg.Epoch != pin.Epoch || pg.Seq != pin.Seq {
			return 0, fmt.Errorf("cut moved mid-fingerprint: (%x, %d) -> (%x, %d)", pin.Epoch, pin.Seq, pg.Epoch, pg.Seq)
		}
		for _, data := range pg.Profiles {
			fp ^= item("prof", string(data))
		}
		for _, pp := range pg.Purchases {
			fp ^= item("purch", pp.UserID, pp.ProductID, strconv.FormatInt(pp.AtEpochMS, 10))
		}
		for _, sc := range pg.Sells {
			fp ^= item("sell", sc.ProductID, strconv.FormatInt(sc.Total, 10))
		}
		if pg.Next == "" {
			return fp, nil
		}
		token = pg.Next
	}
}

// Finish runs the post-drain verdicts: the replay fencing check, the
// lost-acked-write audit against every survivor, and the cross-survivor
// divergence fingerprint. Called after the final Drain, when the
// survivors' replicas have converged.
func (w *world) Finish() (*FailoverResult, error) {
	w.probeWG.Wait()
	w.resMu.Lock()
	killedW, recovW, probeEr := w.killedW, w.recovW, w.probeEr
	w.resMu.Unlock()
	if probeEr != nil {
		return nil, fmt.Errorf("availability probe hit a non-fencing error: %w", probeEr)
	}
	if killedW.IsZero() {
		return nil, fmt.Errorf("the victim was never killed (delay outside the run?)")
	}
	if recovW.IsZero() {
		return nil, fmt.Errorf("writes to the victim's shards never recovered after the kill")
	}

	m := w.auth.Map()
	res := &FailoverResult{
		Victim:                victim,
		LeaseTTLMs:            w.s.FailoverLeaseMs,
		PromotedEpoch:         m.Epoch,
		WriteUnavailabilityMs: float64(recovW.Sub(killedW)) / float64(time.Millisecond),
		BlockedWrites:         w.blocked.Load(),
		AckedWrites:           w.ackedWrites.Load(),
	}
	if m.Epoch < 2 {
		return nil, fmt.Errorf("authority never promoted: map still at epoch %d", m.Epoch)
	}
	for s, owner := range m.Assign {
		if owner != recommend.OwnerOf(s, len(w.replicas)) {
			res.ShardsMoved++
		}
	}

	// The deposed owner replays; every replay must bounce off a fence, and
	// the bounced writes must not have dented the survivors (the divergence
	// fingerprint below runs after this on purpose).
	rejected, accepted := w.replayStaleWrites()
	res.StaleWritesRejected = rejected
	if accepted > 0 {
		return nil, fmt.Errorf("%d stale replayed writes were accepted past the fence", accepted)
	}

	// Every acknowledged write must be present on every survivor.
	w.ackedMu.Lock()
	users := make([]string, 0, len(w.acked))
	for u := range w.acked {
		users = append(users, u)
	}
	w.ackedMu.Unlock()
	sort.Strings(users)
	for _, u := range users {
		for i, r := range w.replicas {
			if i == victim {
				continue
			}
			if _, err := r.Engine.Profile(u); err != nil {
				res.LostAckedWrites++
				break
			}
		}
	}

	// Survivor replicas must agree shard by shard.
	shards := w.replicas[0].Engine.Shards()
	for s := 0; s < shards; s++ {
		var want uint64
		first := true
		for i, r := range w.replicas {
			if i == victim {
				continue
			}
			fp, err := shardFingerprint(r.Engine, s)
			if err != nil {
				return nil, fmt.Errorf("fingerprinting shard %d on server %d: %w", s, i, err)
			}
			if first {
				want, first = fp, false
			} else if fp != want {
				res.DivergentShards++
				break
			}
		}
	}
	return res, nil
}
