package recommend

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"agentrec/internal/kvstore"
	"agentrec/internal/profile"
)

// This file is the engine's durability layer. The paper's Buyer Agent
// Server holds every consumer's interest profile and purchase history, and
// that community must survive a server restart. The engine therefore
// write-through journals every mutation to a Persister (one atomic batch
// per mutation) and recovers the full community — profiles, purchase sets
// and sell counts — on construction.
// Every shard stays in memory; the journal is for restart and replication,
// not for paging state out.
//
// See DESIGN.md "Durability" for the WAL layout.

// Errors reported by the persistence layer.
var (
	ErrNoPersistence = errors.New("recommend: engine has no persistence configured")
	ErrBadKey        = errors.New("recommend: id is empty, not valid UTF-8 or contains a NUL byte")
)

// validID reports whether id passes ErrBadKey's rule: a consumer or product
// id the journal can key and JSON can carry unchanged.
func validID(id string) bool {
	return id != "" && utf8.ValidString(id) && !strings.ContainsRune(id, 0)
}

// ShardData is one community shard image, in the key order its snapshot
// pages and journal buckets carry it, built only by ShardData.add: the
// shard's profiles ascending by consumer id beside the bytes each arrived
// as, its consumers' purchases ascending by (consumer, product), each
// marked with the time of its latest purchase (at_epoch_ms; 0 = undated),
// and the sell counts *attributed to this shard*, ascending by product —
// how many times this shard's consumers bought each product. Attributing
// sells to the buyer's shard (rather than hashing by product) makes every
// shard's durable state self-contained, which is what lets a replica
// rebuild a shard from its owner's journal alone; the engine's served
// totals are the sum of all shards' attributions.
type ShardData struct {
	Profiles  []*profile.Profile
	Encoded   [][]byte // Profiles[i] as it arrived, the bytes SaveShard journals
	Purchases []PurchasePair
	Sells     []SellCount
}

// replaceShardLocked makes data sh's whole state: the one way a shard is
// installed wholesale, by restart recovery and snapshot catch-up alike. It
// builds one record per consumer, its purchase list that consumer's run of
// data's ascending pairs, and the shard's sell map, and drops the view.
// Caller holds sh.mu for writing; a replace of a live shard also retires
// its version (shard.retire), while restart recovery leaves it at 0.
func (e *Engine) replaceShardLocked(sh *shard, data ShardData) {
	consumers := make(map[string]*consumer, len(data.Profiles))
	for _, p := range data.Profiles {
		consumers[p.UserID] = &consumer{prof: p, sum: p.Summary()}
	}
	for pairs := data.Purchases; len(pairs) > 0; {
		user, n := pairs[0].UserID, 1
		for n < len(pairs) && pairs[n].UserID == user {
			n++
		}
		c := consumers[user]
		if c == nil {
			c = &consumer{}
			consumers[user] = c
		}
		c.bought = make([]purchase, n)
		for i, pp := range pairs[:n] {
			c.bought[i] = purchase{product: pp.ProductID, at: pp.AtEpochMS}
		}
		pairs = pairs[n:]
	}
	sells := make(map[string]int64, len(data.Sells))
	for _, sc := range data.Sells {
		sells[sc.ProductID] = sc.Total
	}
	sh.consumers, sh.sells = consumers, sells
	sh.dropView()
}

// Persister journals community mutations durably and replays them on
// engine construction. Implementations must be safe for concurrent use;
// the engine guarantees that calls touching one shard's buckets are
// serialized by that shard's lock, so per-shard write order in the journal
// matches in-memory order.
type Persister interface {
	// SaveWrite durably commits one batch of a shard write into shard's
	// buckets, as one atomic batch: profiles, as encoded (at most
	// maxBatchBytes of them, or one larger profile), then each of buys as
	// the purchase list keeps it (epoch milliseconds, 0 = undated) followed
	// by sells[i], its product's new sell count attributed to the shard. It
	// is called before the in-memory install of that batch (journal first),
	// so a crash can lose an acknowledged write only if SaveWrite itself
	// errored. A write larger than one batch commits batch by batch, its buys
	// with the first: an error here leaves its earlier batches durable and
	// installed, and its later ones unsaved.
	SaveWrite(shard int, profs []*profile.Profile, encoded [][]byte, buys []PurchasePair, sells []SellCount) error
	// SaveShard durably replaces shard's entire state with data — the
	// replication snapshot catch-up path. Stale keys are removed; the write
	// need not be one atomic batch (a crash mid-replace is healed by the
	// next catch-up).
	SaveShard(shard int, data ShardData) error
	// LoadShard recovers one shard's profiles, purchase sets, and
	// shard-attributed sell counts.
	LoadShard(shard int) (ShardData, error)
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

// Err returns the sticky persistence error, if any: a failure on a path
// that had no caller to return it to, which is background compaction.
// Close surfaces it too.
func (e *Engine) Err() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.stickyErr
}

func (e *Engine) setErr(err error) {
	e.errMu.Lock()
	if e.stickyErr == nil {
		e.stickyErr = err
	}
	e.errMu.Unlock()
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

// lockShardW acquires sh.mu for writing and admits the write. It is the one
// place a shard mutation takes its lock, so it is the one ownership
// admission point: admit runs with the lock held, against the engine's
// table, and a refusal releases the lock and is returned. The caller must
// Unlock.
func (e *Engine) lockShardW(sh *shard, admit admitFunc) error {
	sh.mu.Lock()
	b := e.own.Load()
	if err := admit(b.table, sh.id, b.self); err != nil {
		sh.mu.Unlock()
		return err
	}
	return nil
}

// recover installs every shard the Persister holds through the same
// wholesale install snapshot catch-up uses. Nothing is journaled again and
// no version predates it: each shard's gen, its feed head, stays at 0 in
// the feed's fresh epoch.
func (e *Engine) recover() error {
	for _, sh := range e.shards {
		data, err := e.persist.LoadShard(sh.id)
		if err != nil {
			return fmt.Errorf("recommend: recovering shard %d: %w", sh.id, err)
		}
		sh.mu.Lock()
		e.replaceShardLocked(sh, data)
		sh.mu.Unlock()
	}
	return nil
}

// --- the kvstore-backed Persister ---

// Bucket scheme: one bucket per shard and kind, so recovering a shard is
// a few ordered prefix scans and shard buckets never interleave. All
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
	store  *kvstore.Store
	shards int // the engine's shard count, which every record is checked against
}

// openPersister opens (creating if needed) the kvstore-backed Persister
// rooted at dir for an engine of shards shards. A journal with a live
// record outside the buckets of shards 0..shards-1, which recovery would
// never load, is refused with ErrShardMismatch.
func openPersister(dir string, shards int) (*kvPersister, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recommend: creating state dir: %w", err)
	}
	store, err := kvstore.Open(filepath.Join(dir, CommunityWAL))
	if err != nil {
		return nil, err
	}
	buckets, err := store.Buckets()
	for i := 0; err == nil && i < len(buckets); i++ {
		if !shardBucket(buckets[i], shards) {
			err = fmt.Errorf("%w: journal holds bucket %q, past the buckets of %d shards", ErrShardMismatch, buckets[i], shards)
		}
	}
	if err != nil {
		store.Close()
		return nil, err
	}
	return &kvPersister{store: store, shards: shards}, nil
}

// shardBucket reports whether name is the profile, purchase or sell bucket
// of one of shards 0..shards-1.
func shardBucket(name string, shards int) bool {
	for _, prefix := range []string{bucketProfiles, bucketPurchases, bucketSells} {
		if rest, ok := strings.CutPrefix(name, prefix); ok {
			s, err := strconv.Atoi(rest)
			return err == nil && s >= 0 && s < shards && strconv.Itoa(s) == rest
		}
	}
	return false
}

// maxBatchBytes bounds the encoded profiles of one durable batch, one feed
// record and, by default, one snapshot page: well under the kvstore record
// cap, and inside a 16 MiB atp frame after JSON/base64's ~1.4x.
const maxBatchBytes = 4 << 20

// batchEnds cuts a bulk install's encs into runs whose sizes sum to at most
// maxBatchBytes, a larger payload alone in its run, and returns the end
// index of each run: one journal batch and one feed record each.
func batchEnds(encs [][]byte) []int {
	var ends []int
	size := 0
	for i, enc := range encs {
		if i > 0 && size+len(enc) > maxBatchBytes {
			ends, size = append(ends, i), 0
		}
		size += len(enc)
	}
	if len(encs) > 0 {
		ends = append(ends, len(encs))
	}
	return ends
}

func profBucket(shard int) string  { return bucketProfiles + strconv.Itoa(shard) }
func purchBucket(shard int) string { return bucketPurchases + strconv.Itoa(shard) }
func sellBucket(shard int) string  { return bucketSells + strconv.Itoa(shard) }

// purchaseOp is the upsert of one purchase-set entry. The value is the
// purchase's at_epoch_ms as a uvarint: one byte for an undated purchase,
// and the 0x01 marker journals written before purchases carried a time reads
// as 1 ms past the epoch — outside every window anyone asks for.
func purchaseOp(shard int, userID, productID string, at int64) (kvstore.Op, error) {
	if !validID(userID) || !validID(productID) {
		return kvstore.Op{}, fmt.Errorf("%w: purchase %q/%q", ErrBadKey, userID, productID)
	}
	return kvstore.Op{Bucket: purchBucket(shard), Key: userID + "\x00" + productID, Value: binary.AppendUvarint(nil, uint64(at))}, nil
}

// profileOp is the upsert of userID's profile, encoded as enc.
func profileOp(shard int, userID string, enc []byte) (kvstore.Op, error) {
	if !validID(userID) {
		return kvstore.Op{}, fmt.Errorf("%w: user %q", ErrBadKey, userID)
	}
	return kvstore.Op{Bucket: profBucket(shard), Key: userID, Value: enc}, nil
}

// sellOp is the upsert of one product's sell count attributed to shard.
func sellOp(shard int, productID string, total int64) (kvstore.Op, error) {
	if !validID(productID) {
		return kvstore.Op{}, fmt.Errorf("%w: product %q", ErrBadKey, productID)
	}
	return kvstore.Op{Bucket: sellBucket(shard), Key: productID, Value: strconv.AppendInt(nil, total, 10)}, nil
}

// kvBatch queues one mutation's ops and applies them in atomic batches of at
// most maxBatchBytes encoded bytes each.
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
	if b.pending+size > maxBatchBytes {
		if err := b.flush(); err != nil {
			return err
		}
	}
	b.ops = append(b.ops, op)
	b.pending += size
	return nil
}

func (kp *kvPersister) SaveWrite(shard int, profs []*profile.Profile, encoded [][]byte, buys []PurchasePair, sells []SellCount) error {
	// A profile, or a purchase with its sell count, builds its ops on the
	// stack: Apply keeps none of the slice.
	var buf [3]kvstore.Op
	ops := buf[:0]
	if n := len(profs) + 2*len(buys); n > len(buf) {
		ops = make([]kvstore.Op, 0, n)
	}
	for i, p := range profs {
		op, err := profileOp(shard, p.UserID, encoded[i])
		if err != nil {
			return err
		}
		ops = append(ops, op)
	}
	for i, b := range buys {
		op, err := purchaseOp(shard, b.UserID, b.ProductID, b.AtEpochMS)
		if err != nil {
			return err
		}
		sell, err := sellOp(shard, sells[i].ProductID, sells[i].Total)
		if err != nil {
			return err
		}
		ops = append(ops, op, sell)
	}
	return kp.store.Apply(ops)
}

// SaveShard replaces the shard's three buckets with data: stale keys are
// deleted, live ones upserted in image order with the profile bytes data
// arrived as, split into batches under the record cap, so two servers
// installing one image journal the same bytes. Every upsert is built before
// the first delete is queued, so data the journal cannot hold (an empty or
// NUL id) refuses the replace with the buckets untouched. The deletes then
// land first, so a crash mid-replace can only lose state the next snapshot
// catch-up rewrites anyway.
func (kp *kvPersister) SaveShard(shard int, data ShardData) error {
	ups := make([]kvstore.Op, 0, len(data.Profiles)+len(data.Purchases)+len(data.Sells))
	for i, p := range data.Profiles {
		op, err := profileOp(shard, p.UserID, data.Encoded[i])
		if err != nil {
			return err
		}
		ups = append(ups, op)
	}
	for _, pp := range data.Purchases {
		op, err := purchaseOp(shard, pp.UserID, pp.ProductID, pp.AtEpochMS)
		if err != nil {
			return err
		}
		ups = append(ups, op)
	}
	for _, sc := range data.Sells {
		op, err := sellOp(shard, sc.ProductID, sc.Total)
		if err != nil {
			return err
		}
		ups = append(ups, op)
	}

	// Deletes for keys the new state no longer has. ups ascends by (bucket,
	// key): the bucket names sort as the image's sections do, and ids hold
	// no NUL, so purchase pairs sort as their keys.
	b := kvBatch{store: kp.store}
	for _, bucket := range []string{profBucket(shard), purchBucket(shard), sellBucket(shard)} {
		ents, err := kp.store.Scan(bucket, "")
		if err != nil {
			return err
		}
		for _, ent := range ents {
			if _, live := slices.BinarySearchFunc(ups, kvstore.Op{Bucket: bucket, Key: ent.Key}, func(a, b kvstore.Op) int {
				return cmp.Or(strings.Compare(a.Bucket, b.Bucket), strings.Compare(a.Key, b.Key))
			}); !live {
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
	for _, op := range ups {
		if err := b.add(op, len(op.Key)+len(op.Value)); err != nil {
			return err
		}
	}
	return b.flush()
}

// LoadShard assembles the shard's buckets as paged catch-up assembles pages.
func (kp *kvPersister) LoadShard(shard int) (ShardData, error) {
	var data ShardData
	var pg SnapshotPage
	profs, err := kp.store.Scan(profBucket(shard), "")
	if err != nil {
		return data, err
	}
	for _, ent := range profs {
		pg.Profiles = append(pg.Profiles, ent.Value)
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
		pg.Purchases = append(pg.Purchases, PurchasePair{UserID: user, ProductID: product, AtEpochMS: int64(at)})
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
		pg.Sells = append(pg.Sells, SellCount{ProductID: ent.Key, Total: total})
	}
	err = data.add(shard, kp.shards, pg)
	return data, err
}

func (kp *kvPersister) Compact() error { return kp.store.Compact() }

func (kp *kvPersister) SizeStats() (kvstore.SizeStats, error) { return kp.store.SizeStats() }

func (kp *kvPersister) Close() error { return kp.store.Close() }
