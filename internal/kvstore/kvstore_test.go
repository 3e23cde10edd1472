package kvstore

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func newBufReader(b []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(b)) }

// has and count unwrap the accessor errors for tests running against live
// stores, where any error is a test failure.
func has(t *testing.T, s *Store, bucket, key string) bool {
	t.Helper()
	ok, err := s.Has(bucket, key)
	if err != nil {
		t.Fatalf("Has(%s/%s): %v", bucket, key, err)
	}
	return ok
}

func count(t *testing.T, s *Store, bucket string) int {
	t.Helper()
	n, err := s.Count(bucket)
	if err != nil {
		t.Fatalf("Count(%s): %v", bucket, err)
	}
	return n
}

func TestPutGetRoundTrip(t *testing.T) {
	s := New()
	if err := s.Put("users", "alice", []byte(`{"name":"alice"}`)); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("users", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"name":"alice"}` {
		t.Errorf("Get = %q", got)
	}
}

func TestGetNotFound(t *testing.T) {
	s := New()
	_, err := s.Get("users", "nobody")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get absent = %v, want ErrNotFound", err)
	}
}

func TestValidation(t *testing.T) {
	s := New()
	if err := s.Put("", "k", nil); !errors.Is(err, ErrEmptyBucket) {
		t.Errorf("empty bucket: %v", err)
	}
	if err := s.Put("b", "", nil); !errors.Is(err, ErrEmptyKey) {
		t.Errorf("empty key: %v", err)
	}
	if err := s.Put("b\x00ad", "k", nil); !errors.Is(err, ErrInvalidName) {
		t.Errorf("NUL bucket: %v", err)
	}
}

func TestDeleteAbsentIsNoError(t *testing.T) {
	s := New()
	if err := s.Delete("users", "ghost"); err != nil {
		t.Fatalf("Delete absent: %v", err)
	}
}

func TestDeleteRemoves(t *testing.T) {
	s := New()
	s.Put("b", "k", []byte("v"))
	if err := s.Delete("b", "k"); err != nil {
		t.Fatal(err)
	}
	if has(t, s, "b", "k") {
		t.Error("key survived Delete")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := New()
	s.Put("b", "k", []byte("original"))
	v, _ := s.Get("b", "k")
	v[0] = 'X'
	v2, _ := s.Get("b", "k")
	if string(v2) != "original" {
		t.Error("Get aliased internal storage")
	}
}

func TestPutCopiesValue(t *testing.T) {
	s := New()
	val := []byte("original")
	s.Put("b", "k", val)
	val[0] = 'X'
	got, _ := s.Get("b", "k")
	if string(got) != "original" {
		t.Error("Put aliased caller's slice")
	}
}

func TestScanPrefixSorted(t *testing.T) {
	s := New()
	for _, k := range []string{"user:b", "user:a", "txn:1", "user:c"} {
		s.Put("db", k, []byte(k))
	}
	got, err := s.Scan("db", "user:")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"user:a", "user:b", "user:c"}
	if len(got) != len(want) {
		t.Fatalf("Scan returned %d entries, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.Key != want[i] {
			t.Errorf("entry %d = %q, want %q", i, e.Key, want[i])
		}
	}
}

func TestScanEmptyPrefixReturnsAll(t *testing.T) {
	s := New()
	s.Put("b", "x", nil)
	s.Put("b", "y", nil)
	got, _ := s.Scan("b", "")
	if len(got) != 2 {
		t.Errorf("Scan all = %d entries, want 2", len(got))
	}
}

func TestScanUnknownBucketEmpty(t *testing.T) {
	s := New()
	got, err := s.Scan("nothing", "")
	if err != nil || len(got) != 0 {
		t.Errorf("Scan unknown bucket = %v, %v", got, err)
	}
}

// TestPutCopiesCallerBuffer: Apply keeps the values it is handed, but Put
// stores a copy, so a caller that reuses its buffer after a Put, durably
// or not, still reads back the bytes it put.
func TestPutCopiesCallerBuffer(t *testing.T) {
	durable, err := Open(filepath.Join(t.TempDir(), "store.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	for name, s := range map[string]*Store{"memory": New(), "durable": durable} {
		buf := []byte("first")
		if err := s.Put("b", "k", buf); err != nil {
			t.Fatal(err)
		}
		copy(buf, "XXXXX")
		got, err := s.Get("b", "k")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "first" {
			t.Errorf("%s: Get after the caller reused its buffer = %q, want %q", name, got, "first")
		}
	}
}

func TestApplyAtomicBatch(t *testing.T) {
	s := New()
	s.Put("b", "old", []byte("1"))
	err := s.Apply([]Op{
		{Bucket: "b", Key: "new", Value: []byte("2")},
		{Bucket: "b", Key: "old", Delete: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if has(t, s, "b", "old") || !has(t, s, "b", "new") {
		t.Error("batch not fully applied")
	}
}

func TestApplyValidatesBeforeMutating(t *testing.T) {
	s := New()
	err := s.Apply([]Op{
		{Bucket: "b", Key: "good", Value: []byte("1")},
		{Bucket: "", Key: "bad"},
	})
	if err == nil {
		t.Fatal("Apply accepted invalid op")
	}
	if has(t, s, "b", "good") {
		t.Error("partial batch applied")
	}
}

func TestCountAndBuckets(t *testing.T) {
	s := New()
	s.Put("users", "a", nil)
	s.Put("users", "b", nil)
	s.Put("txns", "1", nil)
	if got := count(t, s, "users"); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
	if got := count(t, s, "txns"); got != 1 {
		t.Errorf("Count(txns) = %d, want 1", got)
	}
	if got := count(t, s, "absent"); got != 0 {
		t.Errorf("Count(absent) = %d, want 0", got)
	}
	if got, err := s.Buckets(); err != nil || !slices.Equal(got, []string{"txns", "users"}) {
		t.Errorf("Buckets = %v, %v; want [txns users]", got, err)
	}
	// A bucket whose last key is deleted is no longer listed.
	s.Delete("txns", "1")
	if got, err := s.Buckets(); err != nil || !slices.Equal(got, []string{"users"}) {
		t.Errorf("Buckets after emptying txns = %v, %v; want [users]", got, err)
	}
}

func TestClosedStoreRejectsOps(t *testing.T) {
	s := New()
	s.Put("b", "k", nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Get("b", "k"); !errors.Is(err, ErrClosed) {
		t.Errorf("Get after Close = %v", err)
	}
	if err := s.Put("b", "k2", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after Close = %v", err)
	}
	if _, err := s.Scan("b", ""); !errors.Is(err, ErrClosed) {
		t.Errorf("Scan after Close = %v", err)
	}
	// Has, Count, SizeStats, and Sync must report ErrClosed like
	// every other accessor, not silently answer zero values.
	if _, err := s.Has("b", "k"); !errors.Is(err, ErrClosed) {
		t.Errorf("Has after Close = %v", err)
	}
	if _, err := s.Count("b"); !errors.Is(err, ErrClosed) {
		t.Errorf("Count after Close = %v", err)
	}
	if _, err := s.Buckets(); !errors.Is(err, ErrClosed) {
		t.Errorf("Buckets after Close = %v", err)
	}
	if _, err := s.SizeStats(); !errors.Is(err, ErrClosed) {
		t.Errorf("SizeStats after Close = %v", err)
	}
	if err := s.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("Sync after Close = %v", err)
	}
}

func TestEncodeDecodeJSON(t *testing.T) {
	type rec struct {
		Name string `json:"name"`
		Age  int    `json:"age"`
	}
	s := New()
	if err := s.EncodeJSON("users", "alice", rec{Name: "alice", Age: 30}); err != nil {
		t.Fatal(err)
	}
	var got rec
	if err := s.DecodeJSON("users", "alice", &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "alice" || got.Age != 30 {
		t.Errorf("got %+v", got)
	}
}

func TestDecodeJSONNotFound(t *testing.T) {
	s := New()
	var v struct{}
	if err := s.DecodeJSON("b", "missing", &v); !errors.Is(err, ErrNotFound) {
		t.Errorf("DecodeJSON absent = %v", err)
	}
}

func TestWALPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("users", "alice", []byte("a"))
	s.Put("users", "bob", []byte("b"))
	s.Delete("users", "alice")
	s.Put("txns", "1", []byte("t"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if has(t, s2, "users", "alice") {
		t.Error("deleted key resurrected on replay")
	}
	v, err := s2.Get("users", "bob")
	if err != nil || string(v) != "b" {
		t.Errorf("bob = %q, %v", v, err)
	}
	if !has(t, s2, "txns", "1") {
		t.Error("txns/1 lost on replay")
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("b", "intact", []byte("1"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: write half a record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 99, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("Open with torn tail: %v", err)
	}
	if !has(t, s2, "b", "intact") {
		t.Error("intact record lost")
	}
	s2.Put("b", "after", []byte("2"))
	s2.Close()

	// The store must reopen cleanly after appending past the truncation.
	s3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if !has(t, s3, "b", "after") || !has(t, s3, "b", "intact") {
		t.Error("state lost after torn-tail recovery")
	}
}

func TestCompactShrinksLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.Put("b", "hot", []byte(fmt.Sprintf("version-%d", i)))
	}
	before, _ := os.Stat(path)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Errorf("Compact did not shrink log: %d -> %d", before.Size(), after.Size())
	}
	// The writer must have moved to the compacted file: appends after a
	// compaction have to survive a reopen.
	if err := s.Put("b", "post", []byte("survives")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, err := s2.Get("b", "hot")
	if err != nil || string(v) != "version-99" {
		t.Errorf("after compact+reopen: %q, %v", v, err)
	}
	if v, err := s2.Get("b", "post"); err != nil || string(v) != "survives" {
		t.Errorf("post-compaction append lost: %q, %v", v, err)
	}
}

func TestCompactMemoryStoreNoop(t *testing.T) {
	s := New()
	s.Put("b", "k", nil)
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact on memory store: %v", err)
	}
}

// restoreSnapshot opens a snapshot as a log: a Snapshot holds the records
// a compacted log of the store would, so Open restores it.
func restoreSnapshot(t *testing.T, snap []byte) *Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.wal")
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSnapshotRestore(t *testing.T) {
	s := New()
	s.Put("users", "alice", []byte("a"))
	s.Put("txns", "1", []byte("t1"))
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	s2 := restoreSnapshot(t, buf.Bytes())
	v, err := s2.Get("users", "alice")
	if err != nil || string(v) != "a" {
		t.Errorf("alice = %q, %v", v, err)
	}
	if !has(t, s2, "txns", "1") {
		t.Error("txns lost in snapshot round-trip")
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	fn := func(bucket, key string, value []byte, del bool) bool {
		if bucket == "" || key == "" {
			return true // invalid ops are rejected before encoding
		}
		op := Op{Bucket: bucket, Key: key, Value: value, Delete: del}
		if del {
			op.Value = nil
		}
		rec := encodeRecord([]Op{op})
		got, _, err := decodeRecord(newBufReader(rec), int64(len(rec)))
		if err != nil || len(got) != 1 {
			return false
		}
		g := got[0]
		return g.Bucket == bucket && g.Key == key && g.Delete == del &&
			(del || bytes.Equal(g.Value, value))
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreStateMachineProperty(t *testing.T) {
	// The store must behave exactly like a map[string][]byte per bucket.
	type op struct {
		Key    uint8
		Value  []byte
		Delete bool
	}
	fn := func(ops []op) bool {
		s := New()
		model := make(map[string][]byte)
		for _, o := range ops {
			key := fmt.Sprintf("k%d", o.Key%16)
			if o.Delete {
				s.Delete("b", key)
				delete(model, key)
			} else {
				s.Put("b", key, o.Value)
				model[key] = append([]byte(nil), o.Value...)
			}
		}
		if count(t, s, "b") != len(model) {
			return false
		}
		for k, want := range model {
			got, err := s.Get("b", k)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReadersWriters(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				if err := s.Put("b", key, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Get("b", key); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Scan("b", fmt.Sprintf("g%d-", g)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := count(t, s, "b"); got != 8*200 {
		t.Errorf("Count = %d, want %d", got, 8*200)
	}
}

// Crash-recovery property: for any op sequence, writing through a WAL then
// reopening yields exactly the state of an in-memory store that applied the
// same sequence.
func TestWALReopenEquivalenceProperty(t *testing.T) {
	type op struct {
		Bucket, Key uint8
		Value       []byte
		Delete      bool
	}
	dir := t.TempDir()
	run := 0
	fn := func(ops []op) bool {
		run++
		path := filepath.Join(dir, fmt.Sprintf("prop-%d.wal", run))
		durable, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		mem := New()
		for _, o := range ops {
			bucket := fmt.Sprintf("b%d", o.Bucket%3)
			key := fmt.Sprintf("k%d", o.Key%8)
			if o.Delete {
				durable.Delete(bucket, key)
				mem.Delete(bucket, key)
			} else {
				durable.Put(bucket, key, o.Value)
				mem.Put(bucket, key, o.Value)
			}
		}
		if err := durable.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer reopened.Close()
		for _, bucket := range []string{"b0", "b1", "b2"} {
			want, _ := mem.Scan(bucket, "")
			got, _ := reopened.Scan(bucket, "")
			if len(want) != len(got) {
				return false
			}
			for i := range want {
				if want[i].Key != got[i].Key || !bytes.Equal(want[i].Value, got[i].Value) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Snapshot/Restore property: opening a snapshot as a log reproduces every
// bucket.
func TestSnapshotRestoreEquivalenceProperty(t *testing.T) {
	fn := func(keys []uint8, values [][]byte) bool {
		s := New()
		for i, k := range keys {
			var v []byte
			if len(values) > 0 {
				v = values[i%len(values)]
			}
			s.Put(fmt.Sprintf("b%d", k%2), fmt.Sprintf("k%d", k), v)
		}
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			return false
		}
		r := restoreSnapshot(t, buf.Bytes())
		for _, bucket := range []string{"b0", "b1"} {
			want, _ := s.Scan(bucket, "")
			got, _ := r.Scan(bucket, "")
			if len(want) != len(got) {
				return false
			}
			for i := range want {
				if want[i].Key != got[i].Key || !bytes.Equal(want[i].Value, got[i].Value) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- durability regression tests (double close, degenerate WALs) ---------------

func TestCloseIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("b", "k", []byte("v"))
	if err := s.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close must be a no-op, got %v", err)
	}
	mem := New()
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mem.Close(); err != nil {
		t.Fatalf("second Close on memory store: %v", err)
	}
}

func TestCompactAfterCloseErrClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Compact(); !errors.Is(err, ErrClosed) {
		t.Errorf("Compact after Close = %v, want ErrClosed", err)
	}
}

func TestOpenEmptyWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.wal")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open on pre-existing empty WAL: %v", err)
	}
	defer s.Close()
	if err := s.Put("b", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
}

func TestOpenCorruptTailAbsurdLength(t *testing.T) {
	// A garbage header can claim a multi-gigabyte record; replay must treat
	// it as a torn tail and truncate, not allocate or error out.
	path := filepath.Join(t.TempDir(), "store.wal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("b", "intact", []byte("1"))
	s.Close()
	good, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// length = 0xFFFFFFF0 (~4 GiB), bogus CRC, a few payload bytes.
	if _, err := f.Write([]byte{0xFF, 0xFF, 0xFF, 0xF0, 1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("Open with absurd-length tail: %v", err)
	}
	defer s2.Close()
	if !has(t, s2, "b", "intact") {
		t.Error("intact prefix lost")
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != good.Size() {
		t.Errorf("corrupt tail not truncated: size %d, want %d", after.Size(), good.Size())
	}
}

func TestOpenCorruptTailBadCRC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("b", "k1", []byte("1"))
	s.Put("b", "k2", []byte("2"))
	s.Close()

	// Flip a payload byte of the last record: the CRC check must reject it
	// and recovery keep the prefix.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("Open with bit-flipped tail: %v", err)
	}
	defer s2.Close()
	if !has(t, s2, "b", "k1") {
		t.Error("prefix record lost")
	}
	if has(t, s2, "b", "k2") {
		t.Error("corrupt record replayed")
	}
}

func TestApplyRejectsOversizedBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// One op just over the record cap: rejected up front, nothing written,
	// the store stays usable — an acknowledged write can never be silently
	// truncated away by the replay-side length guard.
	huge := make([]byte, maxRecordLen)
	if err := s.Apply([]Op{{Bucket: "b", Key: "k", Value: huge}}); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("oversized Apply = %v, want ErrBatchTooLarge", err)
	}
	if has(t, s, "b", "k") {
		t.Error("rejected batch partially applied")
	}
	if err := s.Put("b", "small", []byte("v")); err != nil {
		t.Fatalf("store unusable after rejected batch: %v", err)
	}
	s.Close()
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !has(t, s2, "b", "small") {
		t.Error("small record lost")
	}
}

// --- compaction: crash safety, determinism, accounting ------------------------

// seedCompactable fills a store with overwrites so its log is much larger
// than its live state, and returns the live state's expected entries.
func seedCompactable(t *testing.T, s *Store) {
	t.Helper()
	for i := 0; i < 50; i++ {
		if err := s.Put("b", "hot", []byte(fmt.Sprintf("version-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("b", "cold", []byte("keep")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("other", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
}

func assertCompactableState(t *testing.T, s *Store) {
	t.Helper()
	if v, err := s.Get("b", "hot"); err != nil || string(v) != "version-49" {
		t.Errorf("b/hot = %q, %v", v, err)
	}
	if v, err := s.Get("b", "cold"); err != nil || string(v) != "keep" {
		t.Errorf("b/cold = %q, %v", v, err)
	}
	if v, err := s.Get("other", "k"); err != nil || string(v) != "v" {
		t.Errorf("other/k = %q, %v", v, err)
	}
}

// TestCompactCrashSafety is the regression for the truncate-before-write
// data-loss bug: a crash injected at any point during Compact must reopen
// to either the full pre-compaction state or the full compacted state —
// never an empty or partial store. (The legacy implementation truncated
// the live log in place before rewriting it, so a crash mid-compaction
// destroyed the entire store.)
func TestCompactCrashSafety(t *testing.T) {
	stages := []struct {
		stage   string
		swapped bool // log already swapped for the compacted file?
	}{
		{"begin", false},
		{"record", false},
		{"written", false},
		{"delta", false},
		{"synced", false},
		{"renamed", true},
	}
	for _, tc := range stages {
		t.Run(tc.stage, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "store.wal")
			s, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			seedCompactable(t, s)
			pre, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}

			errCrash := errors.New("injected crash")
			compactCrash = func(stage string) error {
				if stage == tc.stage {
					return errCrash
				}
				return nil
			}
			defer func() { compactCrash = nil }()
			if err := s.Compact(); !errors.Is(err, errCrash) {
				t.Fatalf("Compact = %v, want injected crash", err)
			}
			compactCrash = nil
			// The process "died" here: recover purely from disk.
			s2, err := Open(path)
			if err != nil {
				t.Fatalf("Open after crash at %s: %v", tc.stage, err)
			}
			defer s2.Close()
			assertCompactableState(t, s2)
			if _, err := os.Stat(path + compactSuffix); !os.IsNotExist(err) {
				t.Errorf("stale compaction temp survived reopen: %v", err)
			}
			post, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if tc.swapped && post.Size() >= pre.Size() {
				t.Errorf("crash after rename: log %d bytes, want < pre-compaction %d", post.Size(), pre.Size())
			}
			if !tc.swapped && post.Size() != pre.Size() {
				t.Errorf("crash before rename touched the live log: %d bytes, want %d", post.Size(), pre.Size())
			}
		})
	}
}

// TestCompactCarriesConcurrentWrites: a write landing between the
// compaction cut and the swap must survive into the compacted log.
func TestCompactCarriesConcurrentWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	seedCompactable(t, s)
	wrote := false
	compactCrash = func(stage string) error {
		// "written" fires after the frozen view hit the temp file but
		// before the publish step: exactly the window where writers are
		// not excluded.
		if stage == "written" && !wrote {
			wrote = true
			if err := s.Put("b", "during", []byte("landed")); err != nil {
				t.Errorf("Put during compaction: %v", err)
			}
		}
		return nil
	}
	defer func() { compactCrash = nil }()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	compactCrash = nil
	if !wrote {
		t.Fatal("hook never fired")
	}
	if v, err := s.Get("b", "during"); err != nil || string(v) != "landed" {
		t.Fatalf("mid-compaction write lost from live store: %q, %v", v, err)
	}
	st, err := s.SizeStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.AppendedBytes == 0 {
		t.Error("carried-over delta not reflected in AppendedBytes")
	}
	s.Close()
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	assertCompactableState(t, s2)
	if v, err := s2.Get("b", "during"); err != nil || string(v) != "landed" {
		t.Fatalf("mid-compaction write lost from compacted log: %q, %v", v, err)
	}
}

// TestCompactDeterministic: two stores holding identical live state via
// different write histories compact to byte-identical log files (sorted
// bucket/key order), the property that keeps replicated WALs comparable.
func TestCompactDeterministic(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.wal")
	pathB := filepath.Join(dir, "b.wal")
	a, err := Open(pathA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(pathB)
	if err != nil {
		t.Fatal(err)
	}
	// Same final state, very different histories.
	for i := 0; i < 20; i++ {
		a.Put("x", fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	a.Put("y", "only", []byte("z"))
	for i := 19; i >= 0; i-- {
		b.Put("x", fmt.Sprintf("k%d", i), []byte("overwritten"))
	}
	b.Put("y", "gone", []byte("tmp"))
	b.Delete("y", "gone")
	b.Put("y", "only", []byte("z"))
	for i := 0; i < 20; i++ {
		b.Put("x", fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := a.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	a.Close()
	b.Close()
	rawA, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	rawB, err := os.ReadFile(pathB)
	if err != nil {
		t.Fatal(err)
	}
	if len(rawA) == 0 {
		t.Fatal("empty compacted log")
	}
	if !bytes.Equal(rawA, rawB) {
		t.Fatalf("compacted logs differ: %d vs %d bytes", len(rawA), len(rawB))
	}
}

// TestSizeStatsAccounting pins the incremental live-vs-appended math the
// auto-compaction policy depends on.
func TestSizeStatsAccounting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.SizeStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.JournalBytes != 0 || st.LiveBytes != 0 || st.AppendedBytes != 0 {
		t.Fatalf("fresh store stats = %+v", st)
	}
	val := bytes.Repeat([]byte("v"), 64)
	for i := 0; i < 100; i++ {
		if err := s.Put("b", "hot", val); err != nil {
			t.Fatal(err)
		}
	}
	st, _ = s.SizeStats()
	single := liveRecordLen("b", "hot", val)
	if st.LiveBytes != single {
		t.Errorf("LiveBytes = %d, want one record (%d)", st.LiveBytes, single)
	}
	if st.JournalBytes != 100*single {
		t.Errorf("JournalBytes = %d, want %d", st.JournalBytes, 100*single)
	}
	if st.AppendedBytes != st.JournalBytes {
		t.Errorf("AppendedBytes = %d, want %d before any compaction", st.AppendedBytes, st.JournalBytes)
	}
	fi, _ := os.Stat(path)
	if fi.Size() != st.JournalBytes {
		t.Errorf("JournalBytes = %d, file is %d", st.JournalBytes, fi.Size())
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st, _ = s.SizeStats()
	if st.JournalBytes != st.LiveBytes {
		t.Errorf("after Compact journal %d != live %d", st.JournalBytes, st.LiveBytes)
	}
	if st.AppendedBytes != 0 {
		t.Errorf("AppendedBytes = %d after quiet Compact, want 0", st.AppendedBytes)
	}
	if st.Compactions != 1 {
		t.Errorf("Compactions = %d, want 1", st.Compactions)
	}
	if err := s.Delete("b", "hot"); err != nil {
		t.Fatal(err)
	}
	st, _ = s.SizeStats()
	if st.LiveBytes != 0 {
		t.Errorf("LiveBytes = %d after deleting the only key, want 0", st.LiveBytes)
	}
	if st.JournalBytes == 0 || st.AppendedBytes == 0 {
		t.Errorf("delete record not accounted: %+v", st)
	}
	// A reopen recomputes the same numbers from the log.
	s.Put("b", "back", val)
	want, _ := s.SizeStats()
	s.Close()
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, _ := s2.SizeStats()
	if got.JournalBytes != want.JournalBytes || got.LiveBytes != want.LiveBytes {
		t.Errorf("reopen stats %+v, want journal/live of %+v", got, want)
	}
}

// TestSyncBarrier: Sync succeeds on durable and memory stores and the
// synced state survives reopen.
func TestSyncBarrier(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	s.Close()
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !has(t, s2, "b", "k") {
		t.Error("synced write lost")
	}
	mem := New()
	if err := mem.Sync(); err != nil {
		t.Errorf("Sync on memory store: %v", err)
	}
}

// TestOpenCleansStaleCompactTemp: a temp file left by a crashed compaction
// must be removed on Open and never shadow the live log.
func TestOpenCleansStaleCompactTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("b", "k", []byte("v"))
	s.Close()
	if err := os.WriteFile(path+compactSuffix, []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatalf("Open with stale temp: %v", err)
	}
	defer s2.Close()
	if !has(t, s2, "b", "k") {
		t.Error("live state lost")
	}
	if _, err := os.Stat(path + compactSuffix); !os.IsNotExist(err) {
		t.Errorf("stale temp not removed: %v", err)
	}
}

// BenchmarkCompact measures compacting a log that has grown to ~8x its
// live state (the shape the auto-compaction policy fires on).
func BenchmarkCompact(b *testing.B) {
	const keys, overwrites = 256, 8
	path := filepath.Join(b.TempDir(), "bench.wal")
	s, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := bytes.Repeat([]byte("x"), 128)
	dirty := func() {
		for v := 0; v < overwrites; v++ {
			for k := 0; k < keys; k++ {
				if err := s.Put("b", fmt.Sprintf("k%03d", k), val); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dirty()
		b.StartTimer()
		if err := s.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}
