package recommend

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"agentrec/internal/kvstore"
	"agentrec/internal/profile"
)

// This file is the engine's durability layer. The paper's Buyer Agent
// Server holds every consumer's interest profile and purchase history; at
// production scale that community must survive a server restart and must
// not be forced to fit in memory. The engine therefore write-through
// journals every mutation to a Persister (one atomic batch per mutation),
// recovers the full community — profiles, purchase sets, sell counts, and
// the per-category candidate index — on construction, and can spill cold
// shards out of memory entirely: because every write is already durable,
// spilling is just dropping the maps, and fault-in is a bucket scan.
//
// See DESIGN.md "Durability" for the WAL layout and spill policy.

// Errors reported by the persistence layer.
var (
	ErrNoPersistence = errors.New("recommend: engine has no persistence configured")
	ErrBadKey        = errors.New("recommend: id contains NUL byte")
)

// ShardData is one community shard as recovered from a Persister: the
// shard's profiles, its consumers' purchase sets (each product marked with
// the time of its latest purchase, at_epoch_ms; 0 = undated), and the sell counts
// *attributed to this shard* — how many times this shard's consumers bought
// each product. Attributing sells to the buyer's shard (rather than hashing
// by product) makes every shard's durable state self-contained, which is
// what lets a replica rebuild a shard from its owner's journal alone; the
// engine's served totals are the sum of all shards' attributions.
type ShardData struct {
	Profiles  []*profile.Profile
	Purchases map[string]map[string]int64 // user -> product -> at_epoch_ms
	Sells     map[string]int64            // product -> sales by this shard's users
}

// addPurchase records user owning product since at; d.Purchases must be
// non-nil.
func (d *ShardData) addPurchase(user, product string, at int64) {
	set := d.Purchases[user]
	if set == nil {
		set = make(map[string]int64)
		d.Purchases[user] = set
	}
	set[product] = at
}

// shardMaps turns data into the three maps a resident shard holds: every
// profile paired with its computed summary, nil maps made empty. The maps
// are adopted, not copied.
func shardMaps(data ShardData) (map[string]*stored, map[string]map[string]int64, map[string]int64) {
	profiles := make(map[string]*stored, len(data.Profiles))
	for _, p := range data.Profiles {
		profiles[p.UserID] = &stored{prof: p, sum: p.Summary()}
	}
	if data.Purchases == nil {
		data.Purchases = make(map[string]map[string]int64)
	}
	if data.Sells == nil {
		data.Sells = make(map[string]int64)
	}
	return profiles, data.Purchases, data.Sells
}

// Persister journals community mutations durably and replays them on
// engine construction. Implementations must be safe for concurrent use;
// the engine guarantees that calls touching one shard's buckets are
// serialized by that shard's lock, so per-shard write order in the journal
// matches in-memory order.
type Persister interface {
	// SaveProfiles durably installs profiles into shard's bucket, as one
	// atomic batch. It is called before the in-memory install (journal
	// first), so a crash can lose an acknowledged write only if SaveProfiles
	// itself errored.
	SaveProfiles(shard int, profs []*profile.Profile) error
	// SavePurchase durably records userID buying productID at at (epoch
	// milliseconds, 0 = undated; the value the purchase set keeps) together
	// with the product's new sell count attributed to the user's shard, as
	// one atomic batch.
	SavePurchase(shard int, userID, productID string, at, total int64) error
	// SaveShard durably replaces shard's entire state with data — the
	// replication snapshot catch-up path. Stale keys are removed; the write
	// need not be one atomic batch (a crash mid-replace is healed by the
	// next catch-up).
	SaveShard(shard int, data ShardData) error
	// LoadShard recovers one shard's profiles, purchase sets, and
	// shard-attributed sell counts.
	LoadShard(shard int) (ShardData, error)
	// ShardUsers lists the consumer ids stored in shard without loading
	// profiles, so Users/Stats can answer for spilled shards cheaply.
	ShardUsers(shard int) ([]string, error)
	// Compact rewrites the journal down to live state. Implementations
	// must be crash-safe: a crash mid-compaction may lose the compaction
	// but never acknowledged writes.
	Compact() error
	// SizeStats reports the journal's size accounting. The automatic
	// compaction policy (WithAutoCompaction) keys off it, so it is called
	// from write paths and must be cheap.
	SizeStats() (kvstore.SizeStats, error)
	// Close flushes and releases the journal. Must be idempotent.
	Close() error
}

// WithPersistence journals the engine's community to a WAL-backed kvstore
// under dir (created if absent) and recovers any existing state on
// construction. Engines with persistence must be built with Open, which
// can report recovery errors, and should be Closed.
func WithPersistence(dir string) Option {
	return func(e *Engine) { e.stateDir = dir }
}

// WithPersister uses a caller-supplied Persister instead of the kvstore
// one WithPersistence opens. Like WithPersistence it requires Open.
func WithPersister(p Persister) Option {
	return func(e *Engine) { e.persist = p }
}

// WithMaxResidentShards bounds how many community shards stay in memory at
// once (LRU by last access); the rest spill to the Persister and fault back
// in transparently on access. Only meaningful with persistence; n is
// clamped to at least 1. Zero (the default) keeps every shard resident.
func WithMaxResidentShards(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.maxResident = n
		}
	}
}

// spilling reports whether shards may leave memory.
func (e *Engine) spilling() bool {
	return e.persist != nil && e.maxResident > 0 && e.maxResident < e.nshards
}

// Err returns the sticky persistence error, if any: a fault-in failure on
// a read path that had no error return. Close surfaces it too.
func (e *Engine) Err() error {
	e.resMu.Lock()
	defer e.resMu.Unlock()
	return e.stickyErr
}

func (e *Engine) setErr(err error) {
	e.resMu.Lock()
	if e.stickyErr == nil {
		e.stickyErr = err
	}
	e.resMu.Unlock()
}

// Close releases the engine's Persister (a no-op for memory-only engines)
// and reports any sticky persistence error. It is idempotent. An in-flight
// background compaction is allowed to finish first — it is bounded by one
// journal rewrite — so Close never races the log swap.
func (e *Engine) Close() error {
	e.compactGate.Lock()
	e.compactClosed = true
	e.compactGate.Unlock()
	e.compactWG.Wait()
	var err error
	if e.persist != nil {
		err = e.persist.Close()
	}
	if serr := e.Err(); err == nil {
		err = serr
	}
	return err
}

// CompactState rewrites the persistence journal down to live state,
// shrinking a WAL that accumulated profile overwrites and replication
// catch-up rewrites. ErrNoPersistence for memory-only engines. Callers can
// invoke it manually at any time; WithAutoCompaction calls it from a
// background goroutine when the journal outgrows the live state
// (compact.go). Either path is counted in Stats.
func (e *Engine) CompactState() error {
	if e.persist == nil {
		return ErrNoPersistence
	}
	var before kvstore.SizeStats
	if e.events != nil {
		before, _ = e.persist.SizeStats()
	}
	start := time.Now()
	if err := e.persist.Compact(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	e.compactions.Add(1)
	e.compactNanos.Store(elapsed.Nanoseconds())
	if e.events != nil {
		if after, err := e.persist.SizeStats(); err == nil {
			e.publishCompaction(elapsed, before, after)
		}
	}
	return nil
}

// --- residency: touch, fault-in, LRU eviction ---

// touch bumps the shard's LRU clock.
func (e *Engine) touch(sh *shard) {
	if e.spilling() {
		sh.lastAccess.Store(e.clock.Add(1))
	}
}

// lockResidentW acquires sh.mu for writing, admits the write, and makes
// sure the shard is resident, faulting it in from the Persister if it was
// spilled. It is the one place a shard mutation takes its lock, so it is
// the one ownership admission point: admit (nil: every write) runs with the
// lock held, and a refusal releases the lock and is returned. The caller
// must Unlock and then call maybeEvict.
func (e *Engine) lockResidentW(sh *shard, admit admitFunc) error {
	sh.mu.Lock()
	if admit != nil {
		if err := admit(sh.id); err != nil {
			sh.mu.Unlock()
			return err
		}
	}
	if !sh.resident.Load() {
		if err := e.faultInLocked(sh); err != nil {
			sh.mu.Unlock()
			return err
		}
	}
	e.touch(sh)
	return nil
}

// readResident runs read under sh's read lock with the shard's maps in
// memory, faulting the shard in first (and as often as eviction undoes it)
// when it was spilled.
func (e *Engine) readResident(sh *shard, read func()) error {
	for {
		sh.mu.RLock()
		resident := sh.resident.Load()
		if resident {
			read()
		}
		sh.mu.RUnlock()
		if resident {
			e.touch(sh)
			return nil
		}
		if err := e.faultIn(sh); err != nil {
			return err
		}
	}
}

// faultInLocked reloads a spilled shard from the Persister. Caller holds
// sh.mu for writing. The candidate index is untouched: postings survive
// spilling, so they are already exact for the shard's durable state.
func (e *Engine) faultInLocked(sh *shard) error {
	data, err := e.persist.LoadShard(sh.id)
	if err != nil {
		return fmt.Errorf("recommend: faulting in shard %d: %w", sh.id, err)
	}
	sh.profiles, sh.purchases, sh.sells = shardMaps(data)
	sh.gen.Add(1)
	sh.resident.Store(true)
	e.resMu.Lock()
	e.residentN++
	e.resMu.Unlock()
	return nil
}

// maybeEvict spills least-recently-accessed shards until the resident
// count is back under the cap. keep is the shard just served; it is never
// the victim. At most one shard lock is held at a time (lock order shard
// -> resMu, same as fault-in), so eviction can never deadlock with
// concurrent fault-ins.
func (e *Engine) maybeEvict(keep *shard) {
	if !e.spilling() {
		return
	}
	for {
		e.resMu.Lock()
		over := e.residentN > e.maxResident
		e.resMu.Unlock()
		if !over {
			return
		}
		var victim *shard
		var oldest uint64
		for _, sh := range e.shards {
			if sh == keep || !sh.resident.Load() {
				continue
			}
			if at := sh.lastAccess.Load(); victim == nil || at < oldest {
				victim, oldest = sh, at
			}
		}
		if victim == nil {
			return
		}
		victim.mu.Lock()
		if victim.resident.Load() {
			victim.profiles = nil
			victim.purchases = nil
			victim.sells = nil
			victim.resident.Store(false)
			victim.gen.Add(1) // invalidate any cached view
			victim.dropView()
			e.resMu.Lock()
			e.residentN--
			e.resMu.Unlock()
		}
		victim.mu.Unlock()
	}
}

// faultIn makes sh resident (no-op if it already is), then rebalances the
// resident set. Takes and releases sh.mu.
func (e *Engine) faultIn(sh *shard) error {
	sh.mu.Lock()
	if !sh.resident.Load() {
		if err := e.faultInLocked(sh); err != nil {
			sh.mu.Unlock()
			return err
		}
	}
	e.touch(sh)
	sh.mu.Unlock()
	e.maybeEvict(sh)
	return nil
}

// residentView returns an immutable view of sh, faulting the shard in if
// it was spilled. Used by lazy Snapshots.
func (e *Engine) residentView(sh *shard) (*shardView, error) {
	for tries := 0; tries < 16; tries++ {
		if v := sh.snapshot(); v != nil {
			e.touch(sh)
			return v, nil
		}
		if err := e.faultIn(sh); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("recommend: shard %d thrashing between fault-in and eviction", sh.id)
}

// recover replays the Persister into the engine: postings for every
// consumer (the index is always fully resident), shard maps up to the
// resident cap, and the sell counters (each shard's attributed sells
// accumulate into the served per-product totals). Called by Open before the
// engine is shared, so no locks are needed.
func (e *Engine) recover() error {
	for _, sh := range e.shards {
		data, err := e.persist.LoadShard(sh.id)
		if err != nil {
			return fmt.Errorf("recommend: recovering shard %d: %w", sh.id, err)
		}
		profiles, purchases, sells := shardMaps(data)
		changes := make([]postingChange, len(data.Profiles))
		for i, prof := range data.Profiles {
			changes[i].sum = profiles[prof.UserID].sum
		}
		e.index.updateBatch(changes)
		for pid, total := range sells {
			e.sellFor(pid).add(pid, total)
		}
		if e.maxResident <= 0 || e.residentN < e.maxResident {
			sh.profiles, sh.purchases, sh.sells = profiles, purchases, sells
			e.residentN++
		} else {
			sh.profiles, sh.purchases, sh.sells = nil, nil, nil
			sh.resident.Store(false)
		}
	}
	return nil
}

// --- the kvstore-backed Persister ---

// Bucket scheme: one bucket per shard and kind, so recovery and fault-in
// are single ordered prefix scans and shard buckets never interleave. All
// three buckets for shard N are keyed by the *user* shard, so a shard's
// buckets are a self-contained, totally ordered change log — the unit the
// replication layer (replicate.go) ships between servers.
//
//	prof/<shard>  : <userID>                  -> profile JSON
//	purch/<shard> : <userID> \x00 <productID> -> uvarint at_epoch_ms (one 0x00 byte when undated)
//	sell/<shard>  : <productID>               -> decimal sales by this shard's users
const (
	bucketProfiles  = "prof/"
	bucketPurchases = "purch/"
	bucketSells     = "sell/"
)

// CommunityWAL is the journal file name under a WithPersistence dir.
const CommunityWAL = "community.wal"

// kvPersister is the Persister WithPersistence opens: all shards share one
// kvstore.Store whose WAL provides atomic batches, torn-tail recovery, and
// its own synchronization.
type kvPersister struct {
	store *kvstore.Store
}

// OpenPersister opens (creating if needed) the kvstore-backed Persister
// rooted at dir. Exposed so tools can inspect or compact a community
// journal without building an Engine.
func OpenPersister(dir string) (Persister, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recommend: creating state dir: %w", err)
	}
	store, err := kvstore.Open(filepath.Join(dir, CommunityWAL))
	if err != nil {
		return nil, err
	}
	return &kvPersister{store: store}, nil
}

// saveProfilesChunk bounds one durable batch well under the kvstore record
// cap; a bulk install larger than this is split into several atomic
// batches (equivalent to a sequence of smaller SetProfiles calls).
const saveProfilesChunk = 4 << 20 // 4 MiB of encoded profiles

func profBucket(shard int) string  { return bucketProfiles + strconv.Itoa(shard) }
func purchBucket(shard int) string { return bucketPurchases + strconv.Itoa(shard) }
func sellBucket(shard int) string  { return bucketSells + strconv.Itoa(shard) }

// purchaseOp is the upsert of one purchase-set entry. The value is the
// purchase's at_epoch_ms as a uvarint: one byte for an undated purchase,
// and the 0x01 marker journals written before purchases carried a time reads
// as 1 ms past the epoch — outside every window anyone asks for.
func purchaseOp(shard int, userID, productID string, at int64) (kvstore.Op, error) {
	if strings.ContainsRune(userID, 0) || strings.ContainsRune(productID, 0) {
		return kvstore.Op{}, fmt.Errorf("%w: purchase %q/%q", ErrBadKey, userID, productID)
	}
	return kvstore.Op{Bucket: purchBucket(shard), Key: userID + "\x00" + productID, Value: binary.AppendUvarint(nil, uint64(at))}, nil
}

// kvBatch queues one mutation's ops and applies them in atomic batches of at
// most saveProfilesChunk encoded bytes each.
type kvBatch struct {
	store   *kvstore.Store
	ops     []kvstore.Op
	pending int
}

func (b *kvBatch) flush() error {
	if len(b.ops) == 0 {
		return nil
	}
	if err := b.store.Apply(b.ops); err != nil {
		return err
	}
	b.ops, b.pending = b.ops[:0], 0
	return nil
}

func (b *kvBatch) add(op kvstore.Op, size int) error {
	if b.pending+size > saveProfilesChunk {
		if err := b.flush(); err != nil {
			return err
		}
	}
	b.ops = append(b.ops, op)
	b.pending += size
	return nil
}

// addProfile queues p's upsert into shard's profile bucket.
func (b *kvBatch) addProfile(shard int, p *profile.Profile) error {
	if strings.ContainsRune(p.UserID, 0) {
		return fmt.Errorf("%w: user %q", ErrBadKey, p.UserID)
	}
	data, err := p.Marshal()
	if err != nil {
		return fmt.Errorf("recommend: encoding profile %s: %w", p.UserID, err)
	}
	return b.add(kvstore.Op{Bucket: profBucket(shard), Key: p.UserID, Value: data}, len(data))
}

func (kp *kvPersister) SaveProfiles(shard int, profs []*profile.Profile) error {
	b := kvBatch{store: kp.store, ops: make([]kvstore.Op, 0, len(profs))}
	for _, p := range profs {
		if err := b.addProfile(shard, p); err != nil {
			return err
		}
	}
	return b.flush()
}

func (kp *kvPersister) SavePurchase(shard int, userID, productID string, at, total int64) error {
	op, err := purchaseOp(shard, userID, productID, at)
	if err != nil {
		return err
	}
	return kp.store.Apply([]kvstore.Op{
		op,
		{Bucket: sellBucket(shard), Key: productID, Value: []byte(strconv.FormatInt(total, 10))},
	})
}

// SaveShard replaces the shard's three buckets with data: stale keys are
// deleted, live ones upserted, split into batches under the record cap.
// Within one SaveShard the deletes land first, so a crash mid-replace can
// only lose state the next snapshot catch-up rewrites anyway.
func (kp *kvPersister) SaveShard(shard int, data ShardData) error {
	b := kvBatch{store: kp.store}

	// Deletes for keys the new state no longer has.
	live := make(map[string]map[string]bool, 3)
	live[profBucket(shard)] = make(map[string]bool, len(data.Profiles))
	for _, p := range data.Profiles {
		live[profBucket(shard)][p.UserID] = true
	}
	live[purchBucket(shard)] = make(map[string]bool)
	for user, set := range data.Purchases {
		for pid := range set {
			live[purchBucket(shard)][user+"\x00"+pid] = true
		}
	}
	live[sellBucket(shard)] = make(map[string]bool, len(data.Sells))
	for pid := range data.Sells {
		live[sellBucket(shard)][pid] = true
	}
	for bucket, keep := range live {
		ents, err := kp.store.Scan(bucket, "")
		if err != nil {
			return err
		}
		for _, ent := range ents {
			if !keep[ent.Key] {
				if err := b.add(kvstore.Op{Bucket: bucket, Key: ent.Key, Delete: true}, len(ent.Key)); err != nil {
					return err
				}
			}
		}
	}
	if err := b.flush(); err != nil {
		return err
	}

	// Upserts for the new state.
	for _, p := range data.Profiles {
		if err := b.addProfile(shard, p); err != nil {
			return err
		}
	}
	for user, set := range data.Purchases {
		for pid, at := range set {
			op, err := purchaseOp(shard, user, pid, at)
			if err != nil {
				return err
			}
			if err := b.add(op, len(op.Key)+len(op.Value)); err != nil {
				return err
			}
		}
	}
	for pid, total := range data.Sells {
		if strings.ContainsRune(pid, 0) {
			return fmt.Errorf("%w: product %q", ErrBadKey, pid)
		}
		if err := b.add(kvstore.Op{Bucket: sellBucket(shard), Key: pid, Value: []byte(strconv.FormatInt(total, 10))}, len(pid)+20); err != nil {
			return err
		}
	}
	return b.flush()
}

func (kp *kvPersister) LoadShard(shard int) (ShardData, error) {
	data := ShardData{
		Purchases: make(map[string]map[string]int64),
		Sells:     make(map[string]int64),
	}
	profs, err := kp.store.Scan(profBucket(shard), "")
	if err != nil {
		return data, err
	}
	for _, ent := range profs {
		p, err := profile.Unmarshal(ent.Value)
		if err != nil {
			return data, fmt.Errorf("recommend: shard %d profile %s: %w", shard, ent.Key, err)
		}
		data.Profiles = append(data.Profiles, p)
	}
	purchs, err := kp.store.Scan(purchBucket(shard), "")
	if err != nil {
		return data, err
	}
	for _, ent := range purchs {
		user, product, ok := strings.Cut(ent.Key, "\x00")
		if !ok {
			return data, fmt.Errorf("recommend: shard %d malformed purchase key %q", shard, ent.Key)
		}
		at, n := binary.Uvarint(ent.Value)
		if n != len(ent.Value) || n == 0 {
			return data, fmt.Errorf("recommend: shard %d malformed purchase time for %q", shard, ent.Key)
		}
		data.addPurchase(user, product, int64(at))
	}
	sells, err := kp.store.Scan(sellBucket(shard), "")
	if err != nil {
		return data, err
	}
	for _, ent := range sells {
		total, err := strconv.ParseInt(string(ent.Value), 10, 64)
		if err != nil {
			return data, fmt.Errorf("recommend: shard %d sell count for %s: %w", shard, ent.Key, err)
		}
		data.Sells[ent.Key] = total
	}
	return data, nil
}

func (kp *kvPersister) ShardUsers(shard int) ([]string, error) {
	ents, err := kp.store.Scan(profBucket(shard), "")
	if err != nil {
		return nil, err
	}
	out := make([]string, len(ents))
	for i, ent := range ents {
		out[i] = ent.Key
	}
	return out, nil
}

func (kp *kvPersister) Compact() error { return kp.store.Compact() }

func (kp *kvPersister) SizeStats() (kvstore.SizeStats, error) { return kp.store.SizeStats() }

func (kp *kvPersister) Close() error { return kp.store.Close() }
