package recommend

import (
	"strconv"
	"testing"
)

// feedRec is the record emitted as the feed's i-th write (seq i+1 on a
// fresh shard): its one purchase's UserID names its write, so a served
// tail can be checked record by record.
func feedRec(i int) JournalRecord {
	return JournalRecord{Purchases: []PurchasePair{{UserID: strconv.Itoa(i), ProductID: "p"}}}
}

// feedEngine returns a memory-only one-shard engine retaining tail records
// of its journal feed, and an emit that commits rec to its shard as a write
// would: under the shard's write lock, returning the record's seq.
func feedEngine(t *testing.T, tail int) (*Engine, func(JournalRecord) uint64) {
	t.Helper()
	e, err := Open(nil, WithShards(1), WithJournalFeed(tail))
	if err != nil {
		t.Fatal(err)
	}
	sh := e.shards[0]
	return e, func(rec JournalRecord) uint64 {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.emit(e.feedCap, rec)
	}
}

// served returns the records JournalTail serves a cursor at (epoch, since)
// and the head it reports, ok=false when it answers the paged marker.
func served(t *testing.T, e *Engine, epoch, since uint64) ([]JournalRecord, uint64, bool) {
	t.Helper()
	tr, err := e.JournalTail(0, epoch, since)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Records, tr.Head, !tr.Paged
}

// checkTail asserts that a cursor at since is served exactly: the records
// after it, in order, up to head.
func checkTail(t *testing.T, e *Engine, since, head uint64) {
	t.Helper()
	recs, gotHead, ok := served(t, e, e.feedEpoch, since)
	if !ok || gotHead != head {
		t.Fatalf("tail since %d = ok %v head %d, want served at head %d", since, ok, gotHead, head)
	}
	if uint64(len(recs)) != head-since {
		t.Fatalf("tail since %d served %d records, want %d", since, len(recs), head-since)
	}
	for i, r := range recs {
		seq := since + 1 + uint64(i)
		if r.Seq != seq || len(r.Purchases) != 1 || r.Purchases[0].UserID != strconv.FormatUint(seq-1, 10) {
			t.Fatalf("tail since %d [%d] = seq %d purchases %+v, want seq %d user %d", since, i, r.Seq, r.Purchases, seq, seq-1)
		}
	}
}

// TestJournalFeedTailAcrossWrap: a shard's feed that has wrapped its ring
// several times serves every cursor inside its retained window exactly, and
// pages a cursor one record behind it, one from another epoch, and one
// running ahead of the head.
func TestJournalFeedTailAcrossWrap(t *testing.T) {
	const tail = 8
	e, emit := feedEngine(t, tail)
	for i := 0; i < 3*tail+3; i++ {
		if seq := emit(feedRec(i)); seq != uint64(i+1) {
			t.Fatalf("emit %d = seq %d", i, seq)
		}
		head := uint64(i + 1)
		oldest := uint64(1)
		if head > tail {
			oldest = head - tail + 1
		}
		for since := oldest - 1; since <= head; since++ {
			checkTail(t, e, since, head)
		}
		if oldest > 1 {
			if _, _, ok := served(t, e, e.feedEpoch, oldest-2); ok {
				t.Fatalf("head %d: cursor %d behind the window was served", head, oldest-2)
			}
		}
		if _, _, ok := served(t, e, e.feedEpoch, head+1); ok {
			t.Fatalf("head %d: cursor ahead of the head was served", head)
		}
		if _, _, ok := served(t, e, e.feedEpoch+2, head); ok {
			t.Fatalf("head %d: cursor from another epoch was served", head)
		}
	}

	// A wholesale replace retires the tail and moves the head once; the
	// ring refills from there.
	sh := e.shards[0]
	sh.mu.Lock()
	sh.retire()
	sh.mu.Unlock()
	head := uint64(3*tail + 4)
	if got := e.FeedHeads()[0]; got != head {
		t.Fatalf("head after retire = %d, want %d", got, head)
	}
	if _, _, ok := served(t, e, e.feedEpoch, head-1); ok {
		t.Fatal("cursor from before the retire was served")
	}
	checkTail(t, e, head, head)
	emit(feedRec(int(head)))
	checkTail(t, e, head, head+1)
}

// TestJournalFeedFullEmitAllocatesNothing: once a shard's feed holds its
// cap records, an emit overwrites the oldest in place instead of copying
// the retained tail into a fresh slice.
func TestJournalFeedFullEmitAllocatesNothing(t *testing.T) {
	e, emit := feedEngine(t, DefaultJournalTail)
	for i := 0; i < DefaultJournalTail; i++ {
		emit(feedRec(i))
	}
	rec := feedRec(DefaultJournalTail)
	if allocs := testing.AllocsPerRun(100, func() { emit(rec) }); allocs != 0 {
		t.Fatalf("emit on a full feed: %v allocs, want 0", allocs)
	}
	head := e.FeedHeads()[0]
	if recs, _, ok := served(t, e, e.feedEpoch, head-DefaultJournalTail); !ok || len(recs) != DefaultJournalTail {
		t.Fatalf("full feed serves %d records (ok %v), want %d", len(recs), ok, DefaultJournalTail)
	}
}
