package recommend

import (
	"strconv"
	"testing"
)

// feedRec is the record emitted as the feed's i-th write (seq i+1 on a
// fresh shard): its UserID names its write, so a served tail can be
// checked record by record.
func feedRec(i int) JournalRecord {
	return JournalRecord{Op: OpPurchase, UserID: strconv.Itoa(i), ProductID: "p"}
}

// checkTail asserts that a cursor at since is served exactly: the records
// after it, in order, up to head.
func checkTail(t *testing.T, f *journalFeed, since, head uint64) {
	t.Helper()
	recs, gotHead, ok := f.tailSince(0, f.epoch, since)
	if !ok || gotHead != head {
		t.Fatalf("tailSince(%d) = ok %v head %d, want served at head %d", since, ok, gotHead, head)
	}
	if uint64(len(recs)) != head-since {
		t.Fatalf("tailSince(%d) served %d records, want %d", since, len(recs), head-since)
	}
	for i, r := range recs {
		seq := since + 1 + uint64(i)
		if r.Seq != seq || r.Shard != 0 || r.UserID != strconv.FormatUint(seq-1, 10) {
			t.Fatalf("tailSince(%d)[%d] = seq %d user %s, want seq %d user %d", since, i, r.Seq, r.UserID, seq, seq-1)
		}
	}
}

// TestJournalFeedTailAcrossWrap: a feed that has wrapped its ring several
// times serves every cursor inside its retained window exactly, and pages
// (ok=false) a cursor one record behind it, one from another epoch, and one
// running ahead of the head.
func TestJournalFeedTailAcrossWrap(t *testing.T) {
	const tail = 8
	f, err := newJournalFeed(1, tail)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*tail+3; i++ {
		if seq := f.emit(0, feedRec(i)); seq != uint64(i+1) {
			t.Fatalf("emit %d = seq %d", i, seq)
		}
		head := uint64(i + 1)
		oldest := uint64(1)
		if head > tail {
			oldest = head - tail + 1
		}
		for since := oldest - 1; since <= head; since++ {
			checkTail(t, f, since, head)
		}
		if oldest > 1 {
			if _, _, ok := f.tailSince(0, f.epoch, oldest-2); ok {
				t.Fatalf("head %d: cursor %d behind the window was served", head, oldest-2)
			}
		}
		if _, _, ok := f.tailSince(0, f.epoch, head+1); ok {
			t.Fatalf("head %d: cursor ahead of the head was served", head)
		}
		if _, _, ok := f.tailSince(0, f.epoch+2, head); ok {
			t.Fatalf("head %d: cursor from another epoch was served", head)
		}
	}

	// A wholesale replace retires the tail and passes over one seq; the
	// ring refills from there.
	f.skip(0)
	head := uint64(3*tail + 4)
	if got := f.next(0); got != head+1 {
		t.Fatalf("next after skip = %d, want %d", got, head+1)
	}
	if _, _, ok := f.tailSince(0, f.epoch, head-1); ok {
		t.Fatal("cursor from before the skip was served")
	}
	checkTail(t, f, head, head)
	f.emit(0, feedRec(int(head)))
	checkTail(t, f, head, head+1)
}

// TestJournalFeedFullEmitAllocatesNothing: once a shard's feed holds its
// cap records, an emit overwrites the oldest in place instead of copying
// the retained tail into a fresh slice.
func TestJournalFeedFullEmitAllocatesNothing(t *testing.T) {
	f, err := newJournalFeed(1, DefaultJournalTail)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < DefaultJournalTail; i++ {
		f.emit(0, feedRec(i))
	}
	rec := feedRec(DefaultJournalTail)
	if allocs := testing.AllocsPerRun(100, func() { f.emit(0, rec) }); allocs != 0 {
		t.Fatalf("emit on a full feed: %v allocs, want 0", allocs)
	}
	head := f.next(0) - 1
	if recs, _, ok := f.tailSince(0, f.epoch, head-DefaultJournalTail); !ok || len(recs) != DefaultJournalTail {
		t.Fatalf("full feed serves %d records (ok %v), want %d", len(recs), ok, DefaultJournalTail)
	}
}
