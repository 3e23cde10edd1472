package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"agentrec/internal/kvstore"
	"agentrec/internal/recommend"
	"agentrec/internal/workload"
)

// ingest: 10 000 seeded consumers on one WAL-backed engine with
// auto-compaction at ratio 4, and nothing but writes: half set_profile (30 %
// of those a new churn consumer), half purchase. Closed loop only — the
// agent that issues a write waits for its ack. kvstore, the persister, the
// index update and profile.Marshal do the work; neighbour search does
// none, so a read-path gain must show no change here and a cache that
// taxes writes shows a loss.

// ingestRing is the length of the op schedule, which then repeats. Without
// it the live state — churn consumers, purchase pairs — grows as fast as a
// quarter of the journal, the journal never reaches four times the live
// state, and the compactor this workload is here to exercise never runs
// (0 compactions in 30 s). On the ring the live state stops growing after
// one lap and the journal is compacted every few seconds.
const ingestRing = 1 << 15

func ingestInputs(e *env) (*inputs, error) {
	return generate(e.seed,
		workload.Config{Users: e.users(10000), Products: 1200, Categories: 16},
		workload.TrafficConfig{MixSetProfile: 0.5, MixPurchase: 0.5, ChurnFraction: 0.3},
		0, altScan)
}

type ingestWorld struct {
	eng *recommend.Engine
	dir string
}

func (w *ingestWorld) Close() error {
	err := w.eng.Close()
	if rmErr := os.RemoveAll(w.dir); err == nil {
		err = rmErr
	}
	return err
}

// seed installs the generated community through w, purchases in consumer
// order so that two set-ups journal the same bytes.
func seed(in *inputs, w recommend.Writer) error {
	if err := w.SetProfiles(in.profiles); err != nil {
		return err
	}
	for _, usr := range in.universe.Users {
		for _, pid := range in.purchases[usr.ID] {
			if err := w.RecordPurchase(usr.ID, pid); err != nil {
				return err
			}
		}
	}
	return nil
}

func openDurable(e *env, in *inputs, opts ...recommend.Option) (*ingestWorld, error) {
	dir, err := os.MkdirTemp(e.tmp, "ingest-")
	if err != nil {
		return nil, err
	}
	eng, err := recommend.Open(in.universe.Catalog, append(opts, recommend.WithPersistence(dir))...)
	if err != nil {
		return nil, err
	}
	return &ingestWorld{eng: eng, dir: dir}, nil
}

// acked remembers every write the engine acknowledged, for the reopen to
// be held against.
type acked struct {
	mu        sync.Mutex
	users     map[string]bool
	purchases map[[2]string]bool
}

func (a *acked) note(op workload.Op) {
	a.mu.Lock()
	if op.Kind == workload.OpSetProfile {
		a.users[op.UserID] = true
	} else {
		a.purchases[[2]string{op.UserID, op.ProductID}] = true
	}
	a.mu.Unlock()
}

// missing counts the acknowledged writes eng does not hold.
func (a *acked) missing(eng *recommend.Engine) int {
	snap := eng.Snapshot()
	n := 0
	for user := range a.users {
		if snap.Profile(user) == nil {
			n++
		}
	}
	for p := range a.purchases {
		if !snap.Purchases(p[0])[p[1]] {
			n++
		}
	}
	return n
}

// copyTree copies the regular files under src to dst: what a process
// crash leaves behind, flushed to the operating system but not fsynced.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			if os.IsNotExist(err) {
				return nil // a compaction temp file renamed away mid-walk
			}
			return err
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, rel))
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

func runIngest(e *env, r *report) error {
	in, err := ingestInputs(e)
	if err != nil {
		return err
	}
	before := liveHeap()
	w, err := setUp(e, r, func() (*ingestWorld, error) {
		w, err := openDurable(e, in, recommend.WithAutoCompaction(recommend.CompactionPolicy{Ratio: 4}))
		if err != nil {
			return nil, err
		}
		if err := seed(in, w.eng); err != nil {
			w.Close()
			return nil, err
		}
		return w, nil
	}, nil)
	if err != nil {
		return err
	}
	defer w.Close()
	eng, cat := w.eng, in.universe.Catalog

	ack := &acked{users: make(map[string]bool), purchases: make(map[[2]string]bool)}
	do := func(i uint64) (class, error) {
		op, c := in.op(i % ingestRing)
		if err := in.apply(cat, nil, eng, op); err != nil {
			return c, err
		}
		ack.note(op)
		return c, nil
	}
	base := e.warmUp(r, 40000, do, before, nil)

	if e.trace {
		base, err = ingestLayers(e, r, in, w, base, do)
		if err != nil {
			return err
		}
	} else {
		closed := closedLoop(e.workers, e.dur(1), base, do)
		r.count(closed)
		r.endToEnd(closed, closed.lat[classSetProfile], closed.lat[classPurchase])
	}

	// The crash image: the engine is still open, so nothing was closed
	// cleanly; the copy holds exactly the bytes that had been flushed.
	image, err := os.MkdirTemp(e.tmp, "ingest-image-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(image)
	if err := copyTree(w.dir, image); err != nil {
		return err
	}
	t0 := time.Now()
	reopened, err := recommend.Open(cat, recommend.WithPersistence(image))
	if err != nil {
		return fmt.Errorf("reopening the crash image: %w", err)
	}
	reopen := time.Since(t0)
	lost := ack.missing(reopened)
	r.check("acked_writes_recovered", lost == 0, "%d of %d acked writes missing after reopening the crash image",
		lost, len(ack.users)+len(ack.purchases))
	if err := reopened.Close(); err != nil {
		return err
	}
	if e.trace {
		r.set("recover_s", reopen.Seconds(), 1)
		r.set("recommend.open_ms", float64(reopen)/nsPerMs, 1)
		return ingestStorage(e, r, in, w, image)
	}
	return nil
}

// ingestLayers is the durable write ladder. kvstore is timed on a scratch
// store fed the records the persister would write, so its rung is the
// store's own cost, apart from the engine's locks and index update.
func ingestLayers(e *env, r *report, in *inputs, w *ingestWorld, base uint64, plain doFunc) (uint64, error) {
	tr := newTracer()
	dir, err := os.MkdirTemp(e.tmp, "ingest-scratch-")
	if err != nil {
		return base, err
	}
	defer os.RemoveAll(dir)
	scratch, err := kvstore.Open(filepath.Join(dir, "scratch.wal"))
	if err != nil {
		return base, err
	}
	defer scratch.Close()
	eng, cat := w.eng, in.universe.Catalog

	ladder := func(i uint64) (class, error) {
		op, c := in.op(i % ingestRing)
		var first firstError
		keep := first.keep
		shard := "prof/" + fmt.Sprint(eng.ShardOf(op.UserID))
		if c == classSetProfile {
			prof, err := in.refreshed(cat, op)
			if err != nil {
				return c, err
			}
			root := tr.do("recommend.set_profile_durable", noParent, i, func() { keep(eng.SetProfile(prof)) })
			tr.do("profile.summary", root, i, func() { prof.Summary() })
			var data []byte
			tr.do("profile.marshal", root, i, func() {
				var e error
				data, e = prof.Marshal()
				keep(e)
			})
			tr.do("kvstore.apply", root, i, func() { keep(scratch.Put(shard, op.UserID, data)) })
		} else {
			root := tr.do("recommend.record_purchase_durable", noParent, i, func() { keep(eng.RecordPurchase(op.UserID, op.ProductID)) })
			tr.do("kvstore.apply", root, i, func() { keep(scratch.Put(shard, op.UserID+"\x00"+op.ProductID, []byte{1})) })
		}
		if i%64 == 0 {
			tr.do("kvstore.sync", noParent, i, func() { keep(scratch.Sync()) })
		}
		return c, first.err
	}
	base = e.layerPhases(r, tr, base, classSetProfile, plain, ladder,
		"recommend.set_profile_durable", "recommend.record_purchase_durable", "kvstore.sync")
	dur := tr.durations()
	writes := append(dur["recommend.set_profile_durable"], dur["recommend.record_purchase_durable"]...)
	r.setTime("recommend.write_p99_us", writes, 0.99)
	if e.spans != "" {
		return base, tr.write(e.spans)
	}
	return base, nil
}

// ingestStorage measures what the journal costs in bytes and what opening
// and compacting it cost in time. The byte counts come from one caller
// replaying a fixed run of ops into an engine that never compacts, so at
// one seed they repeat exactly.
func ingestStorage(e *env, r *report, in *inputs, w *ingestWorld, image string) error {
	st := w.eng.Stats()
	r.set("kvstore.compactions", float64(st.Compactions), 0)
	r.set("kvstore.journal_bytes", float64(st.JournalBytes), 0)
	r.set("kvstore.live_bytes", float64(st.LiveBytes), 0)

	t0 := time.Now()
	store, err := kvstore.Open(filepath.Join(image, recommend.CommunityWAL))
	if err != nil {
		return err
	}
	r.set("kvstore.open_ms", float64(time.Since(t0))/nsPerMs, 1)
	t0 = time.Now()
	if err := store.Compact(); err != nil {
		store.Close()
		return err
	}
	r.set("kvstore.compact_ms", float64(time.Since(t0))/nsPerMs, 1)
	if err := store.Close(); err != nil {
		return err
	}

	plainW, err := openDurable(e, in)
	if err != nil {
		return err
	}
	defer plainW.Close()
	const replay = 2000
	var payload int
	for i := uint64(0); i < replay; i++ {
		op, _ := in.op(i)
		if op.Kind == workload.OpSetProfile {
			prof, err := in.refreshed(in.universe.Catalog, op)
			if err != nil {
				return err
			}
			data, err := prof.Marshal()
			if err != nil {
				return err
			}
			payload += len(data)
			err = plainW.eng.SetProfile(prof)
			if err != nil {
				return err
			}
		} else {
			payload += len(op.UserID) + len(op.ProductID)
			if err := plainW.eng.RecordPurchase(op.UserID, op.ProductID); err != nil {
				return err
			}
		}
	}
	journal := float64(plainW.eng.Stats().JournalBytes)
	r.set("wal_bytes_per_user_byte", journal/float64(payload), replay)
	r.set("kvstore.bytes_per_record", journal/replay, replay)
	return nil
}
