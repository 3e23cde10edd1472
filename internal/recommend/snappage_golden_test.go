package recommend

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"time"

	"agentrec/internal/catalog"
	"agentrec/internal/profile"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// goldenShard is a one-shard engine holding a fixed, seeded community:
// profiles with categories and sub-categories, a consumer who bought
// without a profile, dated and undated purchases, a repeat purchase, and
// consumer and product ids that JSON must escape (a quote, a backslash,
// <>&, a tab, U+2028, non-ASCII).
func goldenShard(t *testing.T) *Engine {
	t.Helper()
	e, err := Open(catalog.New(), WithJournalFeed(0), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	rng := rand.New(rand.NewPCG(40, 1))
	users := []string{"alice", `quo"te`, `back\slash`, "<tag>&amp", "tab\there", "line\u2028sep",
		"café", "zoë-ü", "u-001", "u-002", "u-010", "u-011"}
	products := []string{"p-00", "p-01", "p-02", `p"3`, "p<4>", "p-05", "p\\6", "p-07", "pé-8", "p-09"}
	at := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	var profs []*profile.Profile
	for i, id := range users {
		p := profile.NewProfile(id)
		for j := 0; j <= rng.IntN(3); j++ {
			ev := profile.Evidence{
				Category:  fmt.Sprintf("cat-%d", rng.IntN(4)),
				Terms:     map[string]float64{fmt.Sprintf("t%d", rng.IntN(6)): rng.Float64(), "shared": rng.Float64()},
				Behaviour: profile.Behaviour(1 + rng.IntN(4)),
				At:        at.Add(time.Duration(i*7+j) * time.Minute),
			}
			if rng.IntN(2) == 0 {
				ev.SubCategory = fmt.Sprintf("sub-%d", rng.IntN(3))
				ev.SubTerms = map[string]float64{fmt.Sprintf("s%d", rng.IntN(4)): rng.Float64()}
			}
			if err := p.Observe(ev); err != nil {
				t.Fatal(err)
			}
		}
		profs = append(profs, p)
	}
	if err := e.SetProfiles(profs); err != nil {
		t.Fatal(err)
	}
	for i, id := range append(users, "bare-buyer") {
		for k := 0; k <= rng.IntN(4); k++ {
			pid := products[rng.IntN(len(products))]
			var when time.Time // undated
			if rng.IntN(3) != 0 {
				when = at.Add(time.Duration(i*100+k) * time.Second)
			}
			if err := e.Observe(id, nil, []PurchasePair{PurchaseAt(id, pid, when)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Observe("alice", nil, []PurchasePair{PurchaseAt("alice", products[0], at.Add(time.Hour))}); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSnapshotPageGolden pins the bytes of a paged snapshot transfer: every
// page of goldenShard's shard, cut at a budget that splits the transfer
// inside both the profile and the purchase sections, JSON-encoded with its
// pin zeroed (the feed epoch is random per engine), one page a line, equals
// testdata/snappage.golden. Run with -update to rewrite the file.
func TestSnapshotPageGolden(t *testing.T) {
	const budget = 700
	e := goldenShard(t)
	tr, err := e.JournalTail(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	splits := map[string]bool{}
	token := ""
	for pages := 0; ; pages++ {
		if pages > 1000 {
			t.Fatal("paged transfer does not terminate")
		}
		pg, err := e.SnapshotPage(0, tr.Epoch, tr.Seq, token, budget)
		if err != nil {
			t.Fatal(err)
		}
		if pg.Epoch != tr.Epoch || pg.Seq != tr.Seq {
			t.Fatalf("pin moved mid-transfer: (%d,%d) -> (%d,%d)", tr.Epoch, tr.Seq, pg.Epoch, pg.Seq)
		}
		pg.Epoch, pg.Seq = 0, 0
		line, err := json.Marshal(pg)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(line)
		got.WriteByte('\n')
		if pg.Next == "" {
			break
		}
		section, key, err := decodePageToken(pg.Next)
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			splits[section] = true
		}
		token = pg.Next
	}
	if !splits[pageSecProfiles] || !splits[pageSecPurchases] {
		t.Fatalf("the budget splits inside sections %v, want both profiles and purchases", splits)
	}
	path := filepath.Join("testdata", "snappage.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("snapshot pages differ from %s; got:\n%s", path, got.Bytes())
	}
}
