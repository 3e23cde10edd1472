package replnet

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"agentrec/internal/catalog"
	"agentrec/internal/profile"
	"agentrec/internal/recommend"
)

// A deposed owner replaying buffered frames at its old epoch must be
// rejected by every frame kind: forwarded writes (set-profiles, purchase),
// journal tails, and snapshot pages. The handler is called directly — over
// TCP errors flatten to strings, so errors.Is only works in-process, which
// is exactly where the fence decision is made.

func fenceEngine(t *testing.T) *recommend.Engine {
	t.Helper()
	cat := catalog.New()
	if err := cat.Add(&catalog.Product{ID: "p1", Name: "P1", Category: "laptop",
		Terms: map[string]float64{"ssd": 1}, PriceCents: 100, SellerID: "s", Stock: 1}); err != nil {
		t.Fatal(err)
	}
	e, err := recommend.Open(cat, recommend.WithJournalFeed(0), recommend.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestHandlerFencesStaleEpochFrames(t *testing.T) {
	e := fenceEngine(t)
	h := Handler(e, 0, 1) // server 0 owns all
	table := e.Ownership()

	prof, err := profile.NewProfile("user-1").Marshal()
	if err != nil {
		t.Fatal(err)
	}
	frames := map[string][]byte{
		kindTail:        mustJSON(t, tailRequest{Shard: 0, OwnerEpoch: 1}),
		kindSnapPage:    mustJSON(t, snapPageRequest{Shard: 0, OwnerEpoch: 1}),
		kindSetProfiles: mustJSON(t, setProfilesRequest{Profiles: [][]byte{prof}, OwnerEpoch: 1}),
		kindObserve: mustJSON(t, observeRequest{UserID: "user-1", OwnerEpoch: 1, Purchases: []recommend.PurchasePair{
			{UserID: "user-1", ProductID: "p1", AtEpochMS: time.Now().UnixMilli()},
		}}),
	}

	// At matching epoch every kind passes the fence (the tail may still
	// fail for replication reasons, but never with a fencing error).
	for kind, data := range frames {
		if _, err := h(kind, data); err != nil {
			if errors.Is(err, recommend.ErrStaleEpoch) || errors.Is(err, recommend.ErrNotOwner) || errors.Is(err, recommend.ErrLeaseExpired) {
				t.Fatalf("%s at current epoch hit the fence: %v", kind, err)
			}
		}
	}

	// The receiver's world moves on to epoch 2; the sender's stamp is stale.
	next := table.Current()
	next.Epoch = 2
	if !table.Advance(next) {
		t.Fatal("advance to epoch 2 failed")
	}
	for kind, data := range frames {
		if _, err := h(kind, data); !errors.Is(err, recommend.ErrStaleEpoch) {
			t.Fatalf("%s stamped with old epoch: err = %v, want ErrStaleEpoch", kind, err)
		}
	}

	// Unstamped frames (epoch 0) are equally stale to a fencing handler.
	if _, err := h(kindTail, mustJSON(t, tailRequest{Shard: 0})); !errors.Is(err, recommend.ErrStaleEpoch) {
		t.Fatalf("unstamped tail: err = %v, want ErrStaleEpoch", err)
	}
}

func TestHandlerFencesUnownedShardAndLapsedLease(t *testing.T) {
	e := fenceEngine(t)
	// Two servers: this handler is server 0, owning only even shards.
	h := Handler(e, 0, 2)
	table := e.Ownership()

	if _, err := h(kindTail, mustJSON(t, tailRequest{Shard: 1, OwnerEpoch: 1})); !errors.Is(err, recommend.ErrNotOwner) {
		t.Fatalf("tail for unowned shard: err = %v, want ErrNotOwner", err)
	}

	// A leased table whose lease lapsed refuses everything — the SIGSTOP'd
	// owner waking up must not serve as if it still owned its shards.
	table.Lease(time.Now().Add(-time.Millisecond))
	if _, err := h(kindTail, mustJSON(t, tailRequest{Shard: 0, OwnerEpoch: 1})); !errors.Is(err, recommend.ErrLeaseExpired) {
		t.Fatalf("tail under lapsed lease: err = %v, want ErrLeaseExpired", err)
	}
	if _, err := h(kindSnapPage, mustJSON(t, snapPageRequest{Shard: 0, OwnerEpoch: 1})); !errors.Is(err, recommend.ErrLeaseExpired) {
		t.Fatalf("snap-page under lapsed lease: err = %v, want ErrLeaseExpired", err)
	}
}

// TestHandlerRefusesMisroutedBatchWhole: a set-profiles frame naming one
// shard this server owns and one it does not is refused before either is
// installed (found by FuzzHandlerFrames: the owned shard used to land).
func TestHandlerRefusesMisroutedBatchWhole(t *testing.T) {
	e := fenceEngine(t)
	h := Handler(e, 0, 2)
	var batch [][]byte
	for _, owner := range []int{0, 1} {
		prof, err := testProfile(ownedUsers(e, owner, 2, 1)[0]).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, prof)
	}
	heads := e.FeedHeads()
	if _, err := h(kindSetProfiles, mustJSON(t, setProfilesRequest{Profiles: batch, OwnerEpoch: 1})); !errors.Is(err, recommend.ErrNotOwner) {
		t.Fatalf("batch naming an unowned shard: err = %v, want ErrNotOwner", err)
	}
	if got := e.FeedHeads(); !reflect.DeepEqual(got, heads) || len(e.Users()) != 0 {
		t.Fatalf("refused batch installed %d consumer(s): heads %v -> %v", len(e.Users()), heads, got)
	}
}

func TestOwnerMapProbeUnfenced(t *testing.T) {
	e := fenceEngine(t)
	h := Handler(e, 1, 2)
	table := e.Ownership()
	next := table.Current()
	next.Epoch = 5
	table.Advance(next)
	table.Lease(time.Now().Add(-time.Minute)) // even a lapsed server answers

	out, err := h(kindOwnerMap, []byte("{}"))
	if err != nil {
		t.Fatalf("owner-map probe must be unfenced: %v", err)
	}
	var info OwnerMapInfo
	if err := json.Unmarshal(out, &info); err != nil {
		t.Fatal(err)
	}
	want := table.Current()
	if info.Hash != want.Hash() || info.Epoch != 5 || info.Shards != 8 || info.Servers != 2 || info.Self != 1 {
		t.Fatalf("probe reply = %+v, want hash %s epoch 5 shards 8 servers 2 self 1", info, want.Hash())
	}

	// A handler whose table never moved reports the static epoch-1 map.
	h0 := Handler(fenceEngine(t), 0, 2)
	out, err = h0(kindOwnerMap, []byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out, &info); err != nil {
		t.Fatal(err)
	}
	static := recommend.StaticOwnership(8, 2)
	if info.Hash != static.Hash() || info.Epoch != 1 {
		t.Fatalf("static probe reply = %+v, want hash %s epoch 1", info, static.Hash())
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestHandlerBindsEngineTable pins Handler's binding: it fences with its
// engine's own table, so over an engine already bound under another self or
// to a map with another epoch or assignment it has no table to fence with
// and refuses every frame, the owner-map probe included, with the binding's
// error. The cold joiner's sequence — a handler for server 2 of a
// two-server map, then a replicator across three peers handed that map —
// binds cleanly.
func TestHandlerBindsEngineTable(t *testing.T) {
	bind := func(servers, self int, epoch uint64) func(*recommend.Engine) {
		return func(e *recommend.Engine) {
			table, err := e.BindOwnership(recommend.NewOwnershipTable(recommend.StaticOwnership(8, servers)), self)
			if err != nil {
				t.Fatal(err)
			}
			m := table.Current()
			m.Epoch = epoch
			table.Advance(m)
		}
	}
	prof, err := testProfile("user-1").Marshal()
	if err != nil {
		t.Fatal(err)
	}
	frames := map[string][]byte{
		kindTail:        mustJSON(t, tailRequest{Shard: 0, OwnerEpoch: 1}),
		kindSnapPage:    mustJSON(t, snapPageRequest{Shard: 0, OwnerEpoch: 1}),
		kindSetProfiles: mustJSON(t, setProfilesRequest{Profiles: [][]byte{prof}, OwnerEpoch: 1}),
		kindObserve: mustJSON(t, observeRequest{UserID: "user-1", OwnerEpoch: 1, Purchases: []recommend.PurchasePair{
			{UserID: "user-1", ProductID: "p1"},
		}}),
		kindOwnerMap: []byte("{}"),
	}
	for _, tc := range []struct {
		name  string
		bound func(*recommend.Engine)
		ok    bool
	}{
		{"unbound", func(*recommend.Engine) {}, true},
		{"same map and self", bind(2, 0, 1), true},
		{"other self", bind(2, 1, 1), false},
		{"other epoch", bind(2, 0, 2), false},
		{"other assignment", bind(3, 0, 1), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := fenceEngine(t)
			tc.bound(e)
			h := Handler(e, 0, 2)
			heads := e.FeedHeads()
			for kind, data := range frames {
				_, err := h(kind, data)
				if refused := errors.Is(err, recommend.ErrOwnershipBound); refused == tc.ok {
					t.Fatalf("%s frame: err = %v, want ErrOwnershipBound %v", kind, err, !tc.ok)
				}
			}
			if !tc.ok && (!reflect.DeepEqual(e.FeedHeads(), heads) || len(e.Users()) != 0) {
				t.Fatalf("a handler without a table installed a write: heads %v -> %v", heads, e.FeedHeads())
			}
		})
	}

	t.Run("cold joiner", func(t *testing.T) {
		e := fenceEngine(t)
		h := Handler(e, 2, 2)
		if _, err := h(kindOwnerMap, []byte("{}")); err != nil {
			t.Fatalf("owner-map probe on the joiner: %v", err)
		}
		peer := recommend.LocalPeer{Engine: fenceEngine(t)}
		owners := recommend.NewOwnershipTable(recommend.StaticOwnership(8, 2))
		if _, err := recommend.NewReplicator(e, 2, []recommend.Peer{peer, peer, nil}, recommend.PullWithOwnership(owners)); err != nil {
			t.Fatalf("joiner's replicator: %v", err)
		}
	})
}
