package recommend

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"agentrec/internal/catalog"
	"agentrec/internal/profile"
)

func laptopEvidence(term string) profile.Evidence {
	return profile.Evidence{Category: "laptop", Terms: map[string]float64{term: 1}, Behaviour: profile.BehaviourBuy}
}

// TestObserveAppliesToStoredProfile: Observe starts a consumer the engine
// does not hold from an empty profile, and applies later evidence to the
// stored one, keeping what another write installed in between.
func TestObserveAppliesToStoredProfile(t *testing.T) {
	e := NewEngine(catalog.New())
	if err := e.Observe("alice", []profile.Evidence{laptopEvidence("ssd")}, nil); err != nil {
		t.Fatal(err)
	}
	p, err := e.Profile("alice")
	if err != nil {
		t.Fatal(err)
	}
	p.Categories["camera"] = &profile.Category{Name: "camera", Terms: map[string]float64{"lens": 1}}
	if err := e.SetProfile(p); err != nil {
		t.Fatal(err)
	}
	if err := e.Observe("alice", []profile.Evidence{laptopEvidence("gpu"), laptopEvidence("ssd")}, nil); err != nil {
		t.Fatal(err)
	}
	want := profile.NewProfile("alice")
	for _, ev := range []profile.Evidence{laptopEvidence("ssd"), laptopEvidence("gpu"), laptopEvidence("ssd")} {
		if err := want.Observe(ev); err != nil {
			t.Fatal(err)
		}
	}
	want.Categories["camera"] = &profile.Category{Name: "camera", Terms: map[string]float64{"lens": 1}}
	got, err := e.Profile("alice")
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := got.Marshal()
	wb, _ := want.Marshal()
	if string(gb) != string(wb) {
		t.Errorf("profile = %s\nwant %s", gb, wb)
	}
}

// TestObserveRefusesWhole: a bad event or key anywhere in the call refuses
// it before anything is written.
func TestObserveRefusesWhole(t *testing.T) {
	e := NewEngine(catalog.New())
	bad := laptopEvidence("ssd")
	bad.Terms["gpu"] = -1
	for _, c := range []struct {
		user string
		evs  []profile.Evidence
		want error
	}{
		{"alice", []profile.Evidence{laptopEvidence("ssd"), bad}, profile.ErrBadEvidence},
		{"alice", []profile.Evidence{laptopEvidence("ssd"), {Terms: map[string]float64{"x": 1}}}, profile.ErrNoCategory},
		{"alice", []profile.Evidence{laptopEvidence("ssd"), laptopEvidence("\xff")}, ErrBadKey},
		{"", []profile.Evidence{laptopEvidence("ssd")}, ErrBadKey},
	} {
		if err := e.Observe(c.user, c.evs, nil); !errors.Is(err, c.want) {
			t.Errorf("Observe(%q, ...) = %v, want %v", c.user, err, c.want)
		}
	}
	if users := e.Users(); len(users) != 0 {
		t.Errorf("a refused Observe wrote %v", users)
	}
}

// TestConcurrentObserveLosesNoEvidence: concurrent updates of one consumer
// all land, each on the record the one before it installed, and so do the
// purchases they carry: every product each buy names is kept, and every
// buy of the product all of them share counts once in its sell total.
func TestConcurrentObserveLosesNoEvidence(t *testing.T) {
	e := NewEngine(catalog.New())
	const writers = 8
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := profile.Evidence{Category: fmt.Sprintf("cat%d", i), Terms: map[string]float64{"t": 1}}
			buys := []PurchasePair{{UserID: "alice", ProductID: fmt.Sprintf("b%d", i)}, {UserID: "alice", ProductID: "shared"}}
			if err := e.Observe("alice", []profile.Evidence{ev}, buys); err != nil {
				t.Error(err)
			}
			if err := e.RecordPurchase("alice", fmt.Sprintf("p%d", i)); err != nil {
				t.Error(err)
			}
			if err := e.RecordPurchase("alice", "shared"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	p, err := e.Profile("alice")
	if err != nil {
		t.Fatal(err)
	}
	var cats []string
	for c := range p.Categories {
		cats = append(cats, c)
	}
	slices.Sort(cats)
	if p.Observed != writers || len(cats) != writers {
		t.Errorf("after %d concurrent observes: observed %d, categories %v", writers, p.Observed, cats)
	}
	if got := len(e.Snapshot().Purchases("alice")); got != 2*writers+1 {
		t.Errorf("purchases = %d, want %d", got, 2*writers+1)
	}
	sells, err := e.Recommend(StrategyTopSeller, "alice", "", -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sells) != 2*writers+1 || sells[0].ProductID != "shared" || sells[0].Score != 2*writers {
		t.Errorf("top sellers = %v, want shared sold %d times beside %d products sold once", sells, 2*writers, 2*writers)
	}
}
