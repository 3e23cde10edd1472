package recommend

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"agentrec/internal/profile"
	"agentrec/internal/similarity"
)

// postingsInOrder is what candidates(cat) has to stream: the category's
// posting map, by UserID.
func postingsInOrder(ix *categoryIndex, cat string) []similarity.Candidate {
	s := ix.shardFor(cat)
	s.mu.RLock()
	defer s.mu.RUnlock()
	var want []similarity.Candidate
	for _, c := range s.postings[cat] {
		want = append(want, c)
	}
	slices.SortFunc(want, byUserID)
	return want
}

func sameCandidates(got, want []similarity.Candidate) bool {
	return slices.EqualFunc(got, want, func(a, b similarity.Candidate) bool {
		return a.UserID == b.UserID && a.Ty == b.Ty && a.Compact == b.Compact
	})
}

// TestPostingListFollowsWrites drives random installs, replacements and
// removals with reads in between: whatever mix of notes a reader finds, the
// list it is handed is the posting map in UserID order.
func TestPostingListFollowsWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ix := newCategoryIndex(4)
	cats := []string{"audio", "camera", "laptop", "phone", "tablet"}
	prev := make(map[string]*profile.Summary)
	for step := 0; step < 6000; step++ {
		id := fmt.Sprintf("u%03d", rng.Intn(240))
		sum := &profile.Summary{UserID: id, Prefs: map[string]float64{}, Compact: &profile.Compact{}}
		for _, c := range cats {
			if rng.Intn(3) == 0 {
				sum.Prefs[c] = 1 + rng.Float64()
			}
		}
		ix.updateBatch([]postingChange{{prev: prev[id], sum: sum}})
		prev[id] = sum
		// Reads come in bursts, so a list sees anything from one changed
		// consumer to more than an eighth of itself between two of them.
		if step%97 > 60 || rng.Intn(9) != 0 {
			continue
		}
		cat := cats[rng.Intn(len(cats))]
		got := slices.Collect(ix.candidates(cat))
		if want := postingsInOrder(ix, cat); !sameCandidates(got, want) {
			t.Fatalf("step %d, %s: list of %d does not match the %d postings in order", step, cat, len(got), len(want))
		}
	}
	for _, cat := range cats {
		if got, want := slices.Collect(ix.candidates(cat)), postingsInOrder(ix, cat); !sameCandidates(got, want) {
			t.Fatalf("%s at rest: list of %d does not match the %d postings in order", cat, len(got), len(want))
		}
	}
}

// TestPostingNotesAreBounded: a category that was read once and is then
// only written to keeps at most an eighth of its list in notes, then lets
// the list go; the next reader still gets the current postings.
func TestPostingNotesAreBounded(t *testing.T) {
	ix := newCategoryIndex(1)
	install := func(i int, ty float64) {
		ix.updateBatch([]postingChange{{sum: &profile.Summary{UserID: fmt.Sprintf("u%03d", i), Prefs: map[string]float64{"laptop": ty}}}})
	}
	for i := 0; i < 80; i++ {
		install(i, 1)
	}
	s := ix.shardFor("laptop")
	if len(s.cache) != 0 || len(s.dirty) != 0 {
		t.Fatal("a category nobody has read keeps a list or notes")
	}
	slices.Collect(ix.candidates("laptop"))
	for i := 0; i < 1000; i++ {
		install(i%80, 2)
		if n := len(s.dirty["laptop"]); n > 80/8 {
			t.Fatalf("%d notes for a list of 80 after %d writes", n, i+1)
		}
	}
	if _, built := s.cache["laptop"]; built {
		t.Fatal("the list outlived more changes than an eighth of it")
	}
	got := slices.Collect(ix.candidates("laptop"))
	if want := postingsInOrder(ix, "laptop"); len(got) != 80 || !sameCandidates(got, want) {
		t.Fatalf("after the write burst: %d candidates, want the 80 current postings in order", len(got))
	}
}

// TestScanWalksConsumersInOrder: the full-community candidate stream
// yields every consumer exactly once, each shard's by UserID, and a view
// taken after a write has the new consumer in place.
func TestScanWalksConsumersInOrder(t *testing.T) {
	u, profiles := soakUniverse(t)
	e := loadEngine(u, profiles)
	check := func(want int) {
		t.Helper()
		snap := e.Snapshot()
		seen := make(map[string]bool)
		last, lastShard := "", -1
		for c := range snap.candidates("") {
			if seen[c.UserID] {
				t.Fatalf("%s streamed twice", c.UserID)
			}
			seen[c.UserID] = true
			if sh := snap.shardIdx(c.UserID); sh != lastShard {
				last, lastShard = "", sh
			}
			if strings.Compare(last, c.UserID) >= 0 {
				t.Fatalf("shard %d: %s streamed after %s", lastShard, c.UserID, last)
			}
			last = c.UserID
		}
		if len(seen) != want {
			t.Fatalf("streamed %d consumers, want %d", len(seen), want)
		}
	}
	check(len(profiles))
	late := profiles[0].Clone()
	late.UserID = "a-late-arrival"
	if err := e.SetProfile(late); err != nil {
		t.Fatal(err)
	}
	check(len(profiles) + 1)
}
