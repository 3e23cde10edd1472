package buyerserver

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"agentrec/internal/catalog"
	"agentrec/internal/kvstore"
	"agentrec/internal/profile"
	"agentrec/internal/recommend"
)

// The Profile Agent's update of a Fig 4.3 buy is one community write: the
// sale and its Fig 4.4 evidence commit together or not at all, cost one
// journal record, and cost one forwarded write on a server that does not
// own the consumer.

var errRefused = errors.New("persister refused the write")

// refusingPersister keeps nothing and, once refuse is set, refuses every
// write.
type refusingPersister struct{ refuse atomic.Bool }

func (p *refusingPersister) SaveWrite(int, []*profile.Profile, [][]byte, []recommend.PurchasePair, []recommend.SellCount) error {
	if p.refuse.Load() {
		return errRefused
	}
	return nil
}
func (p *refusingPersister) SaveShard(int, recommend.ShardData) error { return nil }
func (p *refusingPersister) LoadShard(int) (recommend.ShardData, error) {
	return recommend.ShardData{}, nil
}
func (p *refusingPersister) Compact() error                        { return nil }
func (p *refusingPersister) SizeStats() (kvstore.SizeStats, error) { return kvstore.SizeStats{}, nil }
func (p *refusingPersister) Close() error                          { return nil }

// TestRefusedBuyKeepsNeitherHalf: when the journal refuses the buy's write,
// Buy answers with that error at once, and the engine keeps neither the
// purchase nor the evidence, and UserDB no transaction.
func TestRefusedBuyKeepsNeitherHalf(t *testing.T) {
	p := &refusingPersister{}
	m := newMechanismOver(t, 1, []recommend.Option{recommend.WithPersister(p)})
	m.user(t, "alice")
	p.refuse.Store(true)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := m.srv.Buy(ctx, "alice", "market-1:lap1", 0, false); !errors.Is(err, errRefused) {
		t.Errorf("Buy with the write refused = %v, want %v", err, errRefused)
	}
	if sold, err := m.srv.engine.Recommend(recommend.StrategyTopSeller, "alice", "", -1); err != nil || len(sold) != 0 {
		t.Errorf("top sellers after a refused buy = %v, %v; want none", sold, err)
	}
	prof, err := m.srv.engine.Profile("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Categories) != 0 {
		t.Errorf("a refused buy taught alice's profile %d categories", len(prof.Categories))
	}
	txns, err := m.srv.userDB.Scan(bucketTxns, "alice/")
	if err != nil || len(txns) != 0 {
		t.Errorf("UserDB kept %d transactions of a refused buy (%v)", len(txns), err)
	}
}

// TestBuyIsOneJournalRecord: a buy that found nothing to buy has neither
// evidence nor a sale and writes nothing; a real buy writes one record.
func TestBuyIsOneJournalRecord(t *testing.T) {
	m := newMechanismOver(t, 2, []recommend.Option{recommend.WithJournalFeed(64)})
	m.user(t, "alice")
	headMoves := func(buy func()) uint64 {
		before := m.srv.engine.FeedHeads()
		buy()
		var moved uint64
		for s, head := range m.srv.engine.FeedHeads() {
			moved += head - before[s]
		}
		return moved
	}
	if moved := headMoves(func() {
		if _, err := m.srv.Buy(testCtx(t), "alice", "no-such-product", 0, false); err != nil {
			t.Fatal(err)
		}
	}); moved != 0 {
		t.Errorf("a buy of an unknown product moved the feed heads by %d, want 0", moved)
	}
	if moved := headMoves(func() {
		res, err := m.srv.Buy(testCtx(t), "alice", "market-1:lap1", 0, false)
		if err != nil || res.Sale == nil {
			t.Fatalf("buy = %+v, %v", res, err)
		}
	}); moved != 1 {
		t.Errorf("a buy moved the feed heads by %d, want 1", moved)
	}
}

// countingWriter counts the writes forwarded to one server.
type countingWriter struct {
	recommend.Writer
	observes atomic.Int64
}

func (w *countingWriter) Observe(userID string, evs []profile.Evidence, sales []recommend.PurchasePair) error {
	w.observes.Add(1)
	return w.Writer.Observe(userID, evs, sales)
}

// TestNonOwnerBuyForwardsOneWrite: a buy on a server that does not own the
// consumer's shard forwards one write to the owner, which then holds the
// purchase and the evidence.
func TestNonOwnerBuyForwardsOneWrite(t *testing.T) {
	owner := recommend.NewEngine(catalog.New())
	if _, err := owner.BindOwnership(recommend.NewOwnershipTable(recommend.StaticOwnership(owner.Shards(), 2)), 1); err != nil {
		t.Fatal(err)
	}
	local, err := recommend.Open(catalog.New())
	if err != nil {
		t.Fatal(err)
	}
	remote := &countingWriter{Writer: recommend.OwnedWriter{Local: owner, Sender: local.Ownership()}}
	router, err := recommend.NewRouter(local, 0, []recommend.Writer{nil, remote})
	if err != nil {
		t.Fatal(err)
	}
	m := newMechanism(t, 1, WithCommunityWriter(router))
	user := "alice"
	for i := 0; recommend.OwnerOf(local.ShardOf(user), 2) != 1; i++ {
		user = "alice-" + string(rune('a'+i))
	}
	m.user(t, user)
	before := remote.observes.Load()
	res, err := m.srv.Buy(testCtx(t), user, "market-1:lap1", 0, false)
	if err != nil || res.Sale == nil {
		t.Fatalf("buy = %+v, %v", res, err)
	}
	if n := remote.observes.Load() - before; n != 1 {
		t.Errorf("a non-owner's buy forwarded %d writes, want 1", n)
	}
	prof, err := owner.Profile(user)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Categories) == 0 || !owner.Snapshot().Purchases(user)["market-1:lap1"] {
		t.Errorf("owner holds categories %v and purchases %v after the buy", prof.Categories, owner.Snapshot().Purchases(user))
	}
}
