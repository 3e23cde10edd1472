package recommend

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"agentrec/internal/profile"
)

// These tests pin where ownership is admitted: inside the write, under the
// shard lock. Each one holds the shard's lock itself, lets a write reach
// the lock and park there, moves the ownership table, and only then lets
// the write in. A check made before the lock passed while the write was
// still admissible; the check made under the lock sees the move.

// awaitLockWait returns once a goroutine started by the running test is
// parked on a shard lock inside lockShardW.
func awaitLockWait(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		n := runtime.Stack(buf, true)
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			if strings.Contains(g, "(*RWMutex).Lock") && strings.Contains(g, "(*Engine).lockShardW") &&
				strings.Contains(g, "recommend.TestHeldLock") {
				return
			}
		}
	}
	t.Fatal("the write never reached the shard lock")
}

// signallingPeer answers from its engine and signals each tail it has
// answered.
type signallingPeer struct {
	LocalPeer
	tailed chan struct{}
}

func (p *signallingPeer) JournalTail(ctx context.Context, shard int, epoch, since uint64) (TailResult, error) {
	tr, err := p.LocalPeer.JournalTail(ctx, shard, epoch, since)
	select {
	case p.tailed <- struct{}{}:
	default:
	}
	return tr, err
}

// TestHeldLockApplyDropsDeposedReply: a follower promoted while its apply
// of the old owner's reply waits for the shard lock drops the reply. Both
// apply paths: the wholesale install of a cold follower, and the records
// of a live tail.
func TestHeldLockApplyDropsDeposedReply(t *testing.T) {
	u, profiles := soakUniverse(t)
	for _, live := range []bool{false, true} {
		name := "wholesale"
		if live {
			name = "records"
		}
		t.Run(name, func(t *testing.T) {
			owner, follower := followerOfOne(t, u, profiles)
			peer := &signallingPeer{LocalPeer: LocalPeer{Engine: owner}, tailed: make(chan struct{}, 1)}
			r, err := NewReplicator(follower, 1, []Peer{peer, nil})
			if err != nil {
				t.Fatal(err)
			}
			table := follower.Ownership()
			if live {
				if err := r.Sync(context.Background()); err != nil {
					t.Fatal(err)
				}
				<-peer.tailed
				if err := owner.SetProfile(profile.NewProfile("late-write")); err != nil {
					t.Fatal(err)
				}
			}
			users, before := follower.Users(), r.Stats().Shards[0]

			follower.shards[0].mu.Lock()
			done := make(chan error, 1)
			go func() { done <- r.Sync(context.Background()) }()
			<-peer.tailed
			awaitLockWait(t)
			table.Advance(OwnershipMap{Epoch: 2, Assign: []int{1}})
			follower.shards[0].mu.Unlock()

			if err := <-done; err == nil {
				t.Fatal("Sync applied a reply from a server deposed while the apply waited for the shard lock")
			}
			if got := follower.Users(); !reflect.DeepEqual(got, users) {
				t.Fatalf("deposed owner's reply changed the promoted shard: %d -> %d consumers", len(users), len(got))
			}
			st := r.Stats().Shards[0]
			if st.AppliedSeq != before.AppliedSeq || st.Snapshots != before.Snapshots || st.Records != before.Records {
				t.Fatalf("dropped reply recorded as %+v (before %+v), want an unmoved cursor", st, before)
			}
		})
	}
}

// TestHeldLockForwardedWriteRefusedAfterDeposition: a forwarded write
// waiting for the shard lock when the receiver is deposed is refused, and
// nothing reaches the receiver's feed.
func TestHeldLockForwardedWriteRefusedAfterDeposition(t *testing.T) {
	u, _ := soakUniverse(t)
	for name, write := range map[string]func(Writer) error{
		"set-profile":  func(w Writer) error { return w.SetProfile(profile.NewProfile("forwarded")) },
		"set-profiles": func(w Writer) error { return w.SetProfiles([]*profile.Profile{profile.NewProfile("forwarded")}) },
		"purchase":     func(w Writer) error { return w.RecordPurchase("forwarded", "p1") },
	} {
		t.Run(name, func(t *testing.T) {
			eng, err := Open(u.Catalog, WithJournalFeed(0), WithShards(1))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			recv, err := eng.BindOwnership(NewOwnershipTable(StaticOwnership(1, 2)), 0) // server 0 owns the shard
			if err != nil {
				t.Fatal(err)
			}
			send := NewOwnershipTable(StaticOwnership(1, 2))
			w := OwnedWriter{Local: eng, Sender: send}
			heads := eng.FeedHeads()

			eng.shards[0].mu.Lock()
			done := make(chan error, 1)
			go func() { done <- write(w) }()
			awaitLockWait(t)
			recv.Advance(OwnershipMap{Epoch: 2, Assign: []int{1}})
			eng.shards[0].mu.Unlock()

			if err := <-done; !errors.Is(err, ErrNotOwner) && !errors.Is(err, ErrStaleEpoch) {
				t.Fatalf("forwarded write to a receiver deposed under it: err = %v, want ErrNotOwner or ErrStaleEpoch", err)
			}
			if got := eng.FeedHeads(); !reflect.DeepEqual(got, heads) {
				t.Fatalf("refused write moved the feed: heads %v -> %v", heads, got)
			}
		})
	}
}

// TestHeldLockLocalWriteRefusedAfterLeaseLapse: the owner's local write —
// through the Router's own slot and through the engine's public write API
// alike — waiting for the shard lock when the lease lapses is refused.
func TestHeldLockLocalWriteRefusedAfterLeaseLapse(t *testing.T) {
	u, _ := soakUniverse(t)
	writes := map[string]func(Writer) error{
		"set-profile":  func(w Writer) error { return w.SetProfile(profile.NewProfile("local")) },
		"set-profiles": func(w Writer) error { return w.SetProfiles([]*profile.Profile{profile.NewProfile("local")}) },
		"purchase":     func(w Writer) error { return w.RecordPurchaseAt("local", "p1", time.Now()) },
	}
	for _, via := range []string{"router", "engine"} {
		for name, write := range writes {
			t.Run(via+"/"+name, func(t *testing.T) {
				eng, err := Open(u.Catalog, WithJournalFeed(0), WithShards(1))
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				router, err := NewRouter(eng, 0, []Writer{nil})
				if err != nil {
					t.Fatal(err)
				}
				var w Writer = eng
				if via == "router" {
					w = router
				}
				table := eng.Ownership()
				table.Lease(time.Now().Add(time.Hour))
				heads := eng.FeedHeads()

				eng.shards[0].mu.Lock()
				done := make(chan error, 1)
				go func() { done <- write(w) }()
				awaitLockWait(t)
				table.Lease(time.Now().Add(-time.Millisecond))
				eng.shards[0].mu.Unlock()

				if err := <-done; !errors.Is(err, ErrLeaseExpired) {
					t.Fatalf("local write under a lease lapsed while it waited: err = %v, want ErrLeaseExpired", err)
				}
				if got := eng.FeedHeads(); !reflect.DeepEqual(got, heads) {
					t.Fatalf("refused write moved the feed: heads %v -> %v", heads, got)
				}
			})
		}
	}
}
