package replnet

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"agentrec/internal/analysis"
	"agentrec/internal/kvstore"
	"agentrec/internal/profile"
	"agentrec/internal/recommend"
)

// TestRequestFramesWireVocabulary holds the request frames a server sends
// its peers to the wire naming rule the docs test holds every exported wire
// type to (analysis.WireVocabulary): every field carries an explicit
// snake_case json key.
func TestRequestFramesWireVocabulary(t *testing.T) {
	_, faults := analysis.WireVocabulary(
		reflect.TypeFor[tailRequest](), reflect.TypeFor[snapPageRequest](),
		reflect.TypeFor[setProfilesRequest](), reflect.TypeFor[observeRequest](),
	)
	for _, f := range faults {
		t.Error(f)
	}
}

// lastFeedRecord is the newest record on shard's journal feed of e.
func lastFeedRecord(t *testing.T, e *recommend.Engine, shard int) recommend.JournalRecord {
	t.Helper()
	head, err := e.JournalTail(shard, 0, 0) // the zero cursor pages: it reports epoch and head
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.JournalTail(shard, head.Epoch, head.Head-1)
	if err != nil || len(tr.Records) != 1 {
		t.Fatalf("tail of shard %d at head %d: %+v, %v", shard, head.Head, tr, err)
	}
	return tr.Records[0]
}

// walProfile is the value user's profile has in the community WAL under dir.
func walProfile(t *testing.T, dir string, shard int, user string) []byte {
	t.Helper()
	store, err := kvstore.Open(filepath.Join(dir, recommend.CommunityWAL))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	v, err := store.Get("prof/"+strconv.Itoa(shard), user)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestForwardedProfileKeepsSentBytes: a forwarded write is encoded once, by
// the server that sent it. The bytes a set-profiles frame carries — here a
// valid profile encoding whose keys are not in the order encoding/json
// writes them — are the bytes the owner's WAL and journal feed keep, and,
// after one Sync, a durable follower's WAL and feed too.
func TestForwardedProfileKeepsSentBytes(t *testing.T) {
	cat := catalogWithP1(t)
	open := func(dir string) *recommend.Engine {
		e, err := recommend.Open(cat, recommend.WithJournalFeed(0), recommend.WithShards(8), recommend.WithPersistence(dir))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	ownerDir, followerDir := t.TempDir(), t.TempDir()
	owner, follower := open(ownerDir), open(followerDir)
	repl, err := recommend.NewReplicator(follower, 1, []recommend.Peer{recommend.LocalPeer{Engine: owner}, nil})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repl.Close() })
	// The follower's first pass pages every shard in, so the write below
	// reaches it as a tail record.
	if err := repl.Sync(t.Context()); err != nil {
		t.Fatal(err)
	}

	user := ownedUsers(owner, 0, 2, 1)[0]
	shard := owner.ShardOf(user)
	sent := []byte(`{"updated_at":"0001-01-01T00:00:00Z","observed":1,` +
		`"categories":{"laptop":{"terms":{"ssd":0.3},"name":"laptop"}},"alpha":0.3,"user_id":"` + user + `"}`)
	p, err := profile.Unmarshal(sent)
	if err != nil {
		t.Fatal(err)
	}
	if canon, err := p.Marshal(); err != nil || bytes.Equal(canon, sent) {
		t.Fatalf("the sent encoding is encoding/json's own (%v)", err)
	}
	h := Handler(owner, 0, 2)
	if _, err := h(kindSetProfiles, mustJSON(t, setProfilesRequest{Profiles: [][]byte{sent}, OwnerEpoch: 1})); err != nil {
		t.Fatal(err)
	}
	if err := repl.Sync(t.Context()); err != nil {
		t.Fatal(err)
	}

	feeds := map[string]recommend.JournalRecord{
		"owner":    lastFeedRecord(t, owner, shard),
		"follower": lastFeedRecord(t, follower, shard),
	}
	repl.Close()
	for _, e := range []*recommend.Engine{owner, follower} {
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string][]byte{
		"owner WAL":    walProfile(t, ownerDir, shard, user),
		"follower WAL": walProfile(t, followerDir, shard, user),
	}
	for who, rec := range feeds {
		if len(rec.Profiles) != 1 {
			t.Fatalf("%s feed record: %+v", who, rec)
		}
		got[who+" feed"] = rec.Profiles[0]
	}
	for where, b := range got {
		if !bytes.Equal(b, sent) {
			t.Errorf("%s keeps\n  %s\nnot the sent\n  %s", where, b, sent)
		}
	}
}
