// Package kvstore is the embedded storage substrate standing in for the
// paper's unspecified databases (UserDB, BSMDB, seller catalogs). It is a
// bucketed key-value store with:
//
//   - atomic multi-key batches,
//   - ordered prefix scans (the only query shape the paper's workflows need),
//   - optional durability through an append-only write-ahead log that is
//     replayed on open, and
//   - whole-store snapshots in the record form a compacted log holds, so
//     Open restores one and equal states snapshot to equal bytes.
//
// Values are opaque bytes; EncodeJSON/DecodeJSON helpers cover the common
// case of structured records.
//
// # Guarantees and invariants
//
//   - Apply is all-or-nothing: a batch is appended to the WAL as one
//     CRC-checked record and only then applied to memory, under the store
//     lock. Readers never observe a partial batch.
//   - WAL replay on Open keeps the longest intact prefix of acknowledged
//     batches: a torn final record (crash mid-append) is detected by
//     length/CRC and truncated away; an absurd length header from a
//     garbage tail is capped (maxRecordLen) and treated the same way
//     instead of allocating unbounded memory.
//   - Batches larger than maxRecordLen are rejected up front — on
//     memory-only stores too — so an accepted write can never poison a
//     later Snapshot or durable reopen.
//   - Scan returns entries sorted by key, and Snapshot and Compact
//     serialize buckets and keys in sorted order: two stores holding the
//     same live state produce byte-identical snapshots and byte-identical
//     compacted logs regardless of write history (the property the
//     engine's replication tests pin).
//   - Every accessor reports ErrClosed after Close; no method silently
//     answers from a closed store.
//   - Bucket names are free-form minus NUL; keys are non-empty. Callers
//     own any further layout. The recommendation engine, the heaviest
//     user, keys one bucket per community shard and kind (prof/<shard>,
//     purch/<shard>, sell/<shard> — see internal/recommend/persist.go),
//     which keeps recovery and replication per-shard prefix scans.
//
// # Durability contract
//
// Honestly stated, in increasing strength:
//
//   - Every Apply flushes the encoded record to the operating system
//     before the batch is acknowledged, so acknowledged writes survive a
//     process crash. The store does NOT fsync per append: batches still
//     in the OS write-back cache can vanish on power loss or kernel
//     panic. Sync is the explicit barrier for callers who need an
//     acknowledged batch on stable storage.
//   - Compact is crash-safe: the replacement log is built in a
//     <path>.compact temp file, fsynced, and atomically renamed over the
//     live log. A crash at any point — before, during, or after the
//     rename — reopens to either the full pre-compaction state or the
//     full compacted state, never an empty or partial store. Stale temp
//     files from crashed compactions are removed on Open.
package kvstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Errors returned by the store. Match with errors.Is.
var (
	ErrNotFound      = errors.New("kvstore: key not found")
	ErrClosed        = errors.New("kvstore: store closed")
	ErrCorruptWAL    = errors.New("kvstore: corrupt write-ahead log")
	ErrEmptyKey      = errors.New("kvstore: empty key")
	ErrEmptyBucket   = errors.New("kvstore: empty bucket name")
	ErrInvalidName   = errors.New("kvstore: bucket name contains NUL")
	ErrBatchTooLarge = errors.New("kvstore: batch exceeds max record size")
	errShortRecord   = errors.New("kvstore: short record")
	errBadRecordTag  = errors.New("kvstore: unknown record tag")
)

// Op is a single mutation in a Batch.
type Op struct {
	Bucket string
	Key    string
	Value  []byte // stored as given, not copied (see Apply); a nil Value stores an empty one
	Delete bool   // remove Key instead; Value is ignored
}

// Entry is one key/value pair returned by scans.
type Entry struct {
	Key   string
	Value []byte
}

// Store is a bucketed in-memory KV store with optional WAL durability.
// Construct with Open (durable) or New (memory-only). All methods are safe
// for concurrent use.
type Store struct {
	mu      sync.RWMutex
	buckets map[string]map[string][]byte
	wal     *walWriter
	closed  bool

	compactMu sync.Mutex // serializes Compact calls (lock order compactMu -> mu)

	// Size accounting (see SizeStats), maintained incrementally under mu.
	journalBytes  int64
	appendedBytes int64
	liveBytes     int64
	compactions   uint64
}

// New returns a memory-only store.
func New() *Store {
	return &Store{buckets: make(map[string]map[string][]byte)}
}

// Open returns a store persisted to the append-only log at path, replaying
// any existing log. The file is created if absent. A stale <path>.compact
// temp file left by a crashed compaction is removed first: the rename that
// would have made it live never happened, so the log itself is
// authoritative.
func Open(path string) (*Store, error) {
	if err := os.Remove(path + compactSuffix); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("kvstore: removing stale compaction file: %w", err)
	}
	s := New()
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: opening %s: %w", path, err)
	}
	if err := replayWAL(f, s); err != nil {
		f.Close()
		return nil, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("kvstore: seeking log end: %w", err)
	}
	s.wal = &walWriter{path: path, f: f, w: bufio.NewWriter(f)}
	s.journalBytes = size
	s.recomputeLive()
	return s, nil
}

func validate(bucket, key string) error {
	if bucket == "" {
		return ErrEmptyBucket
	}
	if strings.ContainsRune(bucket, 0) {
		return ErrInvalidName
	}
	if key == "" {
		return ErrEmptyKey
	}
	return nil
}

// Put stores a copy of value under bucket/key, creating the bucket if
// needed: the caller may reuse value's buffer once Put returns.
func (s *Store) Put(bucket, key string, value []byte) error {
	return s.Apply([]Op{{Bucket: bucket, Key: key, Value: append([]byte(nil), value...)}})
}

// Delete removes bucket/key. Deleting an absent key is not an error.
func (s *Store) Delete(bucket, key string) error {
	return s.Apply([]Op{{Bucket: bucket, Key: key, Delete: true}})
}

// Apply performs ops atomically: either all mutations are visible (and
// logged) or none are. A batch whose encoded form would exceed the WAL's
// record cap is rejected with ErrBatchTooLarge before any mutation —
// enforced for memory-only stores too, so a batch that fits in memory can
// never poison a later Snapshot or a durable reopen.
//
// The store keeps each op's Value as given, without a copy: a caller hands
// the slice over, and must not write to it again once Apply is called.
// Put is the call for a value whose buffer the caller reuses.
func (s *Store) Apply(ops []Op) error {
	for _, op := range ops {
		if err := validate(op.Bucket, op.Key); err != nil {
			return err
		}
	}
	plen := payloadLen(ops)
	if plen > maxRecordLen {
		return fmt.Errorf("%w: %d ops", ErrBatchTooLarge, len(ops))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.wal != nil {
		if err := s.wal.append(ops); err != nil {
			return err
		}
		rec := int64(8 + plen)
		s.journalBytes += rec
		s.appendedBytes += rec
	}
	for _, op := range ops {
		b := s.buckets[op.Bucket]
		old, existed := b[op.Key]
		if op.Delete {
			if existed {
				s.liveBytes -= liveRecordLen(op.Bucket, op.Key, old)
				delete(b, op.Key)
			}
			continue
		}
		if b == nil {
			b = make(map[string][]byte)
			s.buckets[op.Bucket] = b
		}
		if existed {
			s.liveBytes -= liveRecordLen(op.Bucket, op.Key, old)
		}
		b[op.Key] = op.Value
		s.liveBytes += liveRecordLen(op.Bucket, op.Key, op.Value)
	}
	return nil
}

// Get returns a copy of the value at bucket/key, or ErrNotFound.
func (s *Store) Get(bucket, key string) ([]byte, error) {
	if err := validate(bucket, key); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	v, ok := s.buckets[bucket][key]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, bucket, key)
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, nil
}

// Has reports whether bucket/key exists. Like every other accessor it
// reports ErrClosed on a closed store.
func (s *Store) Has(bucket, key string) (bool, error) {
	if err := validate(bucket, key); err != nil {
		return false, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false, ErrClosed
	}
	_, ok := s.buckets[bucket][key]
	return ok, nil
}

// Scan returns all entries in bucket whose key starts with prefix, sorted by
// key. An empty prefix returns the whole bucket.
func (s *Store) Scan(bucket, prefix string) ([]Entry, error) {
	if bucket == "" {
		return nil, ErrEmptyBucket
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	b := s.buckets[bucket]
	out := make([]Entry, 0, len(b))
	for k, v := range b {
		if strings.HasPrefix(k, prefix) {
			val := make([]byte, len(v))
			copy(val, v)
			out = append(out, Entry{Key: k, Value: val})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Buckets returns the names of the buckets that hold at least one key,
// sorted, or ErrClosed.
func (s *Store) Buckets() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	var out []string
	for name, b := range s.buckets {
		if len(b) > 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Count reports the number of keys in bucket, or ErrClosed.
func (s *Store) Count(bucket string) (int, error) {
	if bucket == "" {
		return 0, ErrEmptyBucket
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, ErrClosed
	}
	return len(s.buckets[bucket]), nil
}

// SizeStats is the store's size accounting, the signal automatic
// compaction policies key off. All fields are maintained incrementally
// under the store lock — reading them is cheap enough for a write path.
type SizeStats struct {
	// JournalBytes is the current size of the append-only log (always 0
	// for memory-only stores).
	JournalBytes int64
	// AppendedBytes counts bytes appended since Open or since the last
	// successful Compact (which resets it to the bytes carried over from
	// writes landing mid-compaction).
	AppendedBytes int64
	// LiveBytes is the size a log holding exactly the live state would
	// have — what the journal shrinks to if compacted now. Maintained for
	// memory-only stores too.
	LiveBytes int64
	// Compactions counts successful Compact calls since Open.
	Compactions uint64
}

// SizeStats reports the store's current size accounting, or ErrClosed.
func (s *Store) SizeStats() (SizeStats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return SizeStats{}, ErrClosed
	}
	return SizeStats{
		JournalBytes:  s.journalBytes,
		AppendedBytes: s.appendedBytes,
		LiveBytes:     s.liveBytes,
		Compactions:   s.compactions,
	}, nil
}

// Close flushes and closes the WAL, if any. Further operations return
// ErrClosed. Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal != nil {
		return s.wal.close()
	}
	return nil
}

// Sync flushes buffered appends and fsyncs the log to stable storage: the
// durability barrier for callers who need an acknowledged batch to survive
// power loss, not just a process crash (see the package durability
// contract). No-op for memory-only stores.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.wal == nil {
		return nil
	}
	return s.wal.sync()
}

// Compact rewrites the log to hold exactly the live state, in sorted
// (bucket, key) order, shrinking logs that accumulated overwrites and
// deletes. Two stores holding identical live state compact to
// byte-identical logs.
//
// Compact is crash-safe: the replacement is built in a <path>.compact temp
// file, fsynced, and atomically renamed over the live log, so a crash at
// any point leaves either the full old log or the full new one — never a
// truncated store. The bulk of the rewrite runs without the store lock
// (writes keep landing in the live log and are carried over before the
// swap); only the final delta copy, fsync, and rename briefly exclude
// writers. No-op for memory-only stores.
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	// Cut a consistent view. Values are immutable in place (Apply installs
	// fresh copies), so shallow-copying the maps under the lock freezes the
	// live state as of journal offset cut.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.wal == nil {
		s.mu.Unlock()
		return nil
	}
	wal := s.wal
	if wal.err != nil {
		s.mu.Unlock()
		return wal.err
	}
	if err := wal.w.Flush(); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("kvstore: flushing before compaction: %w", err)
	}
	view := make(map[string]map[string][]byte, len(s.buckets))
	for name, b := range s.buckets {
		cp := make(map[string][]byte, len(b))
		for k, v := range b {
			cp[k] = v
		}
		view[name] = cp
	}
	cut := s.journalBytes
	s.mu.Unlock()

	// Rewrite the frozen view into the temp file with no store lock held:
	// writers append to the live log meanwhile.
	tmp, bw, written, err := wal.writeCompacted(view)
	if err != nil {
		return err
	}

	// Publish: carry over the records appended since the cut, fsync, and
	// atomically swap the compacted log in.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		tmp.Close()
		os.Remove(wal.path + compactSuffix)
		return ErrClosed
	}
	delta, err := wal.publishCompacted(tmp, bw, cut, s.journalBytes-cut)
	if err != nil {
		return err
	}
	s.journalBytes = written + delta
	s.appendedBytes = delta
	s.compactions++
	return nil
}

// EncodeJSON marshals v and stores it under bucket/key.
func (s *Store) EncodeJSON(bucket, key string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("kvstore: encoding %s/%s: %w", bucket, key, err)
	}
	return s.Put(bucket, key, data)
}

// DecodeJSON loads bucket/key and unmarshals it into v.
func (s *Store) DecodeJSON(bucket, key string, v any) error {
	data, err := s.Get(bucket, key)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("kvstore: decoding %s/%s: %w", bucket, key, err)
	}
	return nil
}

// Snapshot serializes the entire store to w as the records a compacted log
// of it would hold, so two stores with identical state snapshot to
// identical bytes. It holds the read lock for the duration.
func (s *Store) Snapshot(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	bw := bufio.NewWriter(w)
	if _, err := writeSortedRecords(bw, s.buckets, nil); err != nil {
		return fmt.Errorf("kvstore: writing snapshot: %w", err)
	}
	return bw.Flush()
}

// writeSortedRecords writes one put record per live key of buckets to w in
// sorted (bucket, key) order and returns the bytes written. It is the one
// canonical serialization of live state — Snapshot and Compact both use
// it, which is what makes snapshots AND compacted logs byte-identical
// across stores holding the same state (and what liveRecordLen predicts
// per entry). each, when non-nil, runs after every record (Compact's
// crash-injection point); its error aborts unwrapped.
func writeSortedRecords(w io.Writer, buckets map[string]map[string][]byte, each func() error) (int64, error) {
	names := make([]string, 0, len(buckets))
	for name := range buckets {
		names = append(names, name)
	}
	sort.Strings(names)
	var written int64
	for _, name := range names {
		keys := make([]string, 0, len(buckets[name]))
		for k := range buckets[name] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			rec := encodeRecord([]Op{{Bucket: name, Key: k, Value: buckets[name][k]}})
			if _, err := w.Write(rec); err != nil {
				return written, err
			}
			written += int64(len(rec))
			if each != nil {
				if err := each(); err != nil {
					return written, err
				}
			}
		}
	}
	return written, nil
}

// recomputeLive rebuilds liveBytes from the bucket maps. Open uses it;
// steady-state maintenance is incremental in Apply.
func (s *Store) recomputeLive() {
	var n int64
	for name, b := range s.buckets {
		for k, v := range b {
			n += liveRecordLen(name, k, v)
		}
	}
	s.liveBytes = n
}

// liveRecordLen is the encoded size of the single-put record a compacted
// log (or Snapshot) holds for this entry.
func liveRecordLen(bucket, key string, value []byte) int64 {
	return int64(8 + payloadLen([]Op{{Bucket: bucket, Key: key, Value: value}}))
}

// --- WAL encoding ---
//
// A record is one atomic batch:
//
//	uint32 payloadLen | uint32 crc32(payload) | payload
//
// payload = uint16 nOps, then per op:
//
//	uint8 tag (1=put, 2=delete) | uvarint len + bucket | uvarint len + key |
//	(puts only) uvarint len + value
//
// A torn final record (crash mid-append) is detected by length/CRC and
// truncated away on replay; anything before it is kept.

const (
	tagPut    = 1
	tagDelete = 2

	// maxRecordLen bounds a single record's payload, enforced on both
	// sides: Apply rejects oversized batches up front (so an acknowledged
	// write can never be dropped later), and replay treats an oversized
	// length header — necessarily garbage, given the write-side cap — as a
	// torn tail rather than allocating up to 4 GiB before the CRC check
	// could reject it. Replay also treats a header claiming more bytes than
	// the log still holds as torn, so a garbage tail allocates nothing.
	maxRecordLen = 1 << 28 // 256 MiB
)

func encodeRecord(ops []Op) []byte {
	var payload bytes.Buffer
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		payload.Write(scratch[:n])
	}
	var hdr [2]byte
	binary.BigEndian.PutUint16(hdr[:], uint16(len(ops)))
	payload.Write(hdr[:])
	for _, op := range ops {
		if op.Delete {
			payload.WriteByte(tagDelete)
		} else {
			payload.WriteByte(tagPut)
		}
		putUvarint(uint64(len(op.Bucket)))
		payload.WriteString(op.Bucket)
		putUvarint(uint64(len(op.Key)))
		payload.WriteString(op.Key)
		if !op.Delete {
			putUvarint(uint64(len(op.Value)))
			payload.Write(op.Value)
		}
	}
	out := make([]byte, 8+payload.Len())
	binary.BigEndian.PutUint32(out[0:4], uint32(payload.Len()))
	binary.BigEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload.Bytes()))
	copy(out[8:], payload.Bytes())
	return out
}

// decodeRecord reads one record from r, which holds at most avail more
// bytes, and returns its ops and its size in the log. The size is the
// record's own, not the canonical encoding's: a CRC-valid record need not
// be canonical.
func decodeRecord(r *bufio.Reader, avail int64) ([]Op, int64, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, 0, errShortRecord
		}
		return nil, 0, err // io.EOF = clean end
	}
	length := binary.BigEndian.Uint32(hdr[0:4])
	sum := binary.BigEndian.Uint32(hdr[4:8])
	if length > maxRecordLen || int64(length) > avail-8 {
		return nil, 0, errShortRecord
	}
	ops, err := decodePayload(r, length, sum)
	return ops, 8 + int64(length), err
}

// decodePayload reads a record's length-byte payload and decodes its ops.
func decodePayload(r *bufio.Reader, length, sum uint32) ([]Op, error) {
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, errShortRecord
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, errShortRecord
	}
	if len(payload) < 2 {
		return nil, errShortRecord
	}
	n := int(binary.BigEndian.Uint16(payload[:2]))
	br := bytes.NewReader(payload[2:])
	readBytes := func() ([]byte, error) {
		// A length past the payload's end is garbage, never an allocation:
		// a CRC does not vouch for a hostile writer's field lengths.
		l, err := binary.ReadUvarint(br)
		if err != nil || l > uint64(br.Len()) {
			return nil, errShortRecord
		}
		buf := make([]byte, l)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, errShortRecord
		}
		return buf, nil
	}
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		tag, err := br.ReadByte()
		if err != nil {
			return nil, errShortRecord
		}
		bucket, err := readBytes()
		if err != nil {
			return nil, err
		}
		key, err := readBytes()
		if err != nil {
			return nil, err
		}
		op := Op{Bucket: string(bucket), Key: string(key)}
		switch tag {
		case tagPut:
			val, err := readBytes()
			if err != nil {
				return nil, err
			}
			op.Value = val
		case tagDelete:
			op.Delete = true
		default:
			return nil, errBadRecordTag
		}
		ops = append(ops, op)
	}
	return ops, nil
}

type walWriter struct {
	path string
	f    *os.File
	w    *bufio.Writer
	err  error // sticky: a failed compaction swap left the writer unusable
}

func (wal *walWriter) append(ops []Op) error {
	if wal.err != nil {
		return wal.err
	}
	if _, err := wal.w.Write(encodeRecord(ops)); err != nil {
		return fmt.Errorf("kvstore: appending to log: %w", err)
	}
	if err := wal.w.Flush(); err != nil {
		return fmt.Errorf("kvstore: flushing log: %w", err)
	}
	return nil
}

func (wal *walWriter) sync() error {
	if wal.err != nil {
		return wal.err
	}
	if err := wal.w.Flush(); err != nil {
		return fmt.Errorf("kvstore: flushing log: %w", err)
	}
	if err := wal.f.Sync(); err != nil {
		return fmt.Errorf("kvstore: fsyncing log: %w", err)
	}
	return nil
}

func (wal *walWriter) close() error {
	if wal.err != nil {
		wal.f.Close()
		return wal.err
	}
	if err := wal.w.Flush(); err != nil {
		wal.f.Close()
		return fmt.Errorf("kvstore: flushing log on close: %w", err)
	}
	if err := wal.f.Close(); err != nil {
		return fmt.Errorf("kvstore: closing log: %w", err)
	}
	return nil
}

// compactSuffix names the temp file Compact builds beside the live log.
const compactSuffix = ".compact"

// compactCrash, when non-nil, simulates a crash at named points inside a
// compaction. A non-nil return aborts immediately and skips the cleanup
// the real error paths perform — exactly the on-disk state a process
// death at that point would leave — so tests can assert what a reopen
// recovers at each stage. Points, in order: "begin", "record" (after each
// record written to the temp file), "written", "delta", "synced",
// "renamed".
var compactCrash func(stage string) error

func crashPoint(stage string) error {
	if compactCrash == nil {
		return nil
	}
	return compactCrash(stage)
}

// writeCompacted writes one put per live key of view, in sorted (bucket,
// key) order, into a fresh <path>.compact file, and returns the open file,
// its buffered writer, and the bytes written. The live log is untouched.
// On error the temp file is removed — except at injected crash points,
// which abort with no cleanup by design.
func (wal *walWriter) writeCompacted(view map[string]map[string][]byte) (*os.File, *bufio.Writer, int64, error) {
	if err := crashPoint("begin"); err != nil {
		return nil, nil, 0, err
	}
	tmpPath := wal.path + compactSuffix
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("kvstore: creating compaction file: %w", err)
	}
	discard := func(err error) (*os.File, *bufio.Writer, int64, error) {
		tmp.Close()
		os.Remove(tmpPath)
		return nil, nil, 0, err
	}
	bw := bufio.NewWriter(tmp)
	var crashed error
	written, err := writeSortedRecords(bw, view, func() error {
		crashed = crashPoint("record")
		return crashed
	})
	if err != nil {
		if crashed != nil {
			return nil, nil, 0, crashed
		}
		return discard(fmt.Errorf("kvstore: writing compacted log: %w", err))
	}
	if err := crashPoint("written"); err != nil {
		return nil, nil, 0, err
	}
	return tmp, bw, written, nil
}

// publishCompacted finishes a compaction: flush the live log, append its
// post-cut suffix (delta bytes starting at offset cut — records that
// landed while the view was being written) to the compacted file, fsync
// it, atomically rename it over the live log, and move the writer to the
// new file. The caller holds the store lock, so the delta is stable.
// Failures before the rename remove the temp file and leave the live log
// authoritative; failures after it poison the writer (wal.err), since
// appends may no longer reach the file a reopen would read.
func (wal *walWriter) publishCompacted(tmp *os.File, bw *bufio.Writer, cut, delta int64) (int64, error) {
	tmpPath := wal.path + compactSuffix
	discard := func(err error) (int64, error) {
		tmp.Close()
		os.Remove(tmpPath)
		return 0, err
	}
	if err := wal.w.Flush(); err != nil {
		return discard(fmt.Errorf("kvstore: flushing live log before swap: %w", err))
	}
	if delta > 0 {
		if _, err := io.Copy(bw, io.NewSectionReader(wal.f, cut, delta)); err != nil {
			return discard(fmt.Errorf("kvstore: carrying writes into compacted log: %w", err))
		}
	}
	if err := crashPoint("delta"); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return discard(fmt.Errorf("kvstore: flushing compacted log: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return discard(fmt.Errorf("kvstore: fsyncing compacted log: %w", err))
	}
	if err := crashPoint("synced"); err != nil {
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return 0, fmt.Errorf("kvstore: closing compacted log: %w", err)
	}
	if err := os.Rename(tmpPath, wal.path); err != nil {
		os.Remove(tmpPath)
		return 0, fmt.Errorf("kvstore: swapping compacted log in: %w", err)
	}
	// The live log is now the compacted file; a crash from here on is safe
	// (Open reads it), but this writer must move to the new inode before
	// any further append.
	if err := crashPoint("renamed"); err != nil {
		wal.err = fmt.Errorf("kvstore: compacted log not reopened: %w", err)
		return 0, wal.err
	}
	syncDir(wal.path)
	f, err := os.OpenFile(wal.path, os.O_RDWR, 0o644)
	if err != nil {
		wal.err = fmt.Errorf("kvstore: reopening compacted log: %w", err)
		return 0, wal.err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		wal.err = fmt.Errorf("kvstore: seeking compacted log end: %w", err)
		return 0, wal.err
	}
	old := wal.f
	wal.f = f
	wal.w.Reset(f)
	old.Close()
	return delta, nil
}

// syncDir fsyncs the directory containing path so the rename itself is on
// stable storage. Best-effort: some platforms refuse directory fsyncs, and
// the swap is already atomic for every crash short of power loss.
func syncDir(path string) {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// replayWAL loads every intact record from f into s and truncates a torn
// tail if one is found.
func replayWAL(f *os.File, s *Store) error {
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("kvstore: sizing log: %w", err)
	}
	r := bufio.NewReader(f)
	var offset int64
	for {
		ops, size, err := decodeRecord(r, fi.Size()-offset)
		if err == io.EOF {
			return nil
		}
		if errors.Is(err, errShortRecord) {
			// Torn tail from a crash mid-append: drop it.
			if terr := f.Truncate(offset); terr != nil {
				return fmt.Errorf("kvstore: truncating torn log tail: %w", terr)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCorruptWAL, err)
		}
		for _, op := range ops {
			b := s.buckets[op.Bucket]
			if op.Delete {
				delete(b, op.Key)
				continue
			}
			if b == nil {
				b = make(map[string][]byte)
				s.buckets[op.Bucket] = b
			}
			b[op.Key] = op.Value
		}
		offset += size
	}
}

// payloadLen computes the encoded payload size of ops.
func payloadLen(ops []Op) int {
	n := 2
	var scratch [binary.MaxVarintLen64]byte
	uvlen := func(v uint64) int { return binary.PutUvarint(scratch[:], v) }
	for _, op := range ops {
		n += 1 + uvlen(uint64(len(op.Bucket))) + len(op.Bucket) + uvlen(uint64(len(op.Key))) + len(op.Key)
		if !op.Delete {
			n += uvlen(uint64(len(op.Value))) + len(op.Value)
		}
	}
	return n
}
