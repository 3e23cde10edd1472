package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay feeds Open hostile logs. Each input is tried three ways:
//
//   - raw as the whole log;
//   - raw framed as one record with a valid length and CRC, so the bytes
//     reach the payload decoder a checksum cannot protect, followed by raw
//     again as a (usually torn) tail;
//   - a valid log of batches derived from raw, either cut at cut or with
//     raw appended as a garbage tail.
//
// Open must never panic. Whenever it succeeds it must be idempotent:
// reopening the log it left yields a byte-identical Snapshot and file
// length. A valid log cut anywhere recovers exactly the batches that end
// before the cut, and a garbage tail never costs a batch of the valid
// prefix.
func FuzzWALReplay(f *testing.F) {
	valid := func(batches ...[]Op) []byte {
		var wal []byte
		for _, b := range batches {
			wal = append(wal, encodeRecord(b)...)
		}
		return wal
	}
	put := []Op{{Bucket: "users", Key: "alice", Value: []byte("a")}}
	del := []Op{{Bucket: "users", Key: "alice", Delete: true}}
	f.Add([]byte{}, uint16(0), false)
	f.Add(valid(put, del, put), uint16(9), false)
	f.Add(valid(put), uint16(0), true)
	f.Add([]byte("not a log at all"), uint16(3), true)
	f.Add([]byte{0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef, 0, 1}, uint16(5), false)

	f.Fuzz(func(t *testing.T, raw []byte, cut uint16, tail bool) {
		dir := t.TempDir()
		replayTwice(t, filepath.Join(dir, "raw.wal"), raw)
		replayTwice(t, filepath.Join(dir, "framed.wal"), append(frame(raw), raw...))

		batches := batchesFrom(raw)
		var wal []byte
		ends := make([]int, len(batches))
		for i, b := range batches {
			wal = append(wal, encodeRecord(b)...)
			ends[i] = len(wal)
		}
		path := filepath.Join(dir, "valid.wal")
		if tail {
			if _, ok := replayTwice(t, path, append(wal[:len(wal):len(wal)], raw...)); !ok {
				t.Fatalf("a valid log with a garbage tail failed to open")
			}
			kept, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(kept, wal) {
				t.Fatalf("garbage tail cost the valid prefix: %d of %d bytes kept", len(kept), len(wal))
			}
			return
		}
		c := int(cut) % (len(wal) + 1)
		got, ok := replayTwice(t, path, wal[:c])
		if !ok {
			t.Fatalf("a valid log cut at %d of %d failed to open", c, len(wal))
		}
		model := New()
		for i, b := range batches {
			if ends[i] <= c {
				if err := model.Apply(b); err != nil {
					t.Fatal(err)
				}
			}
		}
		if want := snapshotBytes(t, model); !bytes.Equal(got, want) {
			t.Fatalf("log cut at %d of %d recovered a different state", c, len(wal))
		}
	})
}

// replayTwice writes data as the log at path, opens it, and — when that
// succeeds — reopens the log Open left and requires the same Snapshot and
// file length. It returns the Snapshot and whether the first Open
// succeeded; a refusal is an allowed answer to a hostile log.
func replayTwice(t *testing.T, path string, data []byte) ([]byte, bool) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		return nil, false
	}
	first, firstLen := closeAndMeasure(t, s, path)
	s, err = Open(path)
	if err != nil {
		t.Fatalf("reopening a log Open accepted: %v", err)
	}
	second, secondLen := closeAndMeasure(t, s, path)
	if !bytes.Equal(first, second) || firstLen != secondLen {
		t.Fatalf("reopen is not idempotent: snapshot %d -> %d bytes, log %d -> %d bytes",
			len(first), len(second), firstLen, secondLen)
	}
	return first, true
}

// closeAndMeasure snapshots s, closes it, and returns the snapshot with the
// length of the log it left at path.
func closeAndMeasure(t *testing.T, s *Store, path string) ([]byte, int64) {
	t.Helper()
	snap := snapshotBytes(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return snap, fi.Size()
}

func snapshotBytes(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frame wraps payload in a record header with its true length and CRC.
func frame(payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[8:], payload)
	return out
}

// batchesFrom derives a deterministic sequence of valid batches from raw:
// each byte drives the next choice, so the fuzzer steers batch count, op
// kinds, key collisions and value sizes.
func batchesFrom(raw []byte) [][]Op {
	next := func() byte {
		if len(raw) == 0 {
			return 0
		}
		b := raw[0]
		raw = raw[1:]
		return b
	}
	var batches [][]Op
	for len(raw) > 0 && len(batches) < 64 {
		n := int(next()%4) + 1
		batch := make([]Op, 0, n)
		for range n {
			c := next()
			op := Op{Bucket: fmt.Sprintf("b%d", c%3), Key: fmt.Sprintf("k%d", c>>2%8)}
			if c&0x80 != 0 {
				op.Delete = true
			} else {
				op.Value = bytes.Repeat([]byte{c}, int(next()%16))
			}
			batch = append(batch, op)
		}
		batches = append(batches, batch)
	}
	return batches
}
