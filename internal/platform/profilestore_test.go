package platform

import (
	"slices"
	"testing"

	"agentrec/internal/profile"
	"agentrec/internal/recommend"
)

// categories lists the categories of userID's community profile on e.
func categories(t *testing.T, e *recommend.Engine, userID string) []string {
	t.Helper()
	p, err := e.Profile(userID)
	if err != nil {
		t.Fatal(err)
	}
	var cats []string
	for c := range p.Categories {
		cats = append(cats, c)
	}
	slices.Sort(cats)
	return cats
}

// TestProfileUpdatesFromTwoHomesKeepEveryCategory: a consumer registered on
// both servers of a two-server platform shops on each. Every Profile Agent
// update lands on the one stored profile, so no server's update overwrites
// the other's.
func TestProfileUpdatesFromTwoHomesKeepEveryCategory(t *testing.T) {
	p, err := New(Config{Marketplaces: 1, BuyerServers: 2, Products: demoProducts()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := testCtx(t)
	for _, b := range p.Buyers {
		if err := b.Register(ctx, "alice"); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Login(ctx, "alice"); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		server  int
		product string
		want    []string
	}{
		{0, "p1", []string{"laptop"}},
		{1, "p3", []string{"camera", "laptop"}},
		{0, "p2", []string{"camera", "laptop"}},
	}
	for _, st := range steps {
		if res, err := p.Buyers[st.server].Buy(ctx, "alice", st.product, 0, false); err != nil || res.Sale == nil {
			t.Fatalf("buy %s on server %d: %v (sale=%v)", st.product, st.server, err, res.Sale)
		}
		if err := p.SyncReplicas(ctx); err != nil {
			t.Fatal(err)
		}
		for i, e := range engines(p) {
			if got := categories(t, e, "alice"); !slices.Equal(got, st.want) {
				t.Errorf("after buying %s on server %d, engine %d profile categories = %v, want %v",
					st.product, st.server, i, got, st.want)
			}
		}
	}
}

// TestProfileUpdateKeepsCommunityWrite: a community write between two
// tasks is kept by the next task's profile update.
func TestProfileUpdateKeepsCommunityWrite(t *testing.T) {
	p, err := New(Config{Marketplaces: 1, Products: demoProducts()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := testCtx(t)
	b := p.Buyer()
	if err := b.Register(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Login(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Buy(ctx, "alice", "p1", 0, false); err != nil {
		t.Fatal(err)
	}
	prof, err := p.Engine.Profile("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := prof.Observe(demoProducts()[2].Evidence(profile.BehaviourQuery)); err != nil {
		t.Fatal(err)
	}
	if err := p.Writer(0).SetProfile(prof); err != nil {
		t.Fatal(err)
	}
	want := []string{"camera", "laptop"}
	if got := categories(t, p.Engine, "alice"); !slices.Equal(got, want) {
		t.Fatalf("after the community write, categories = %v, want %v", got, want)
	}
	if _, err := b.Buy(ctx, "alice", "p2", 0, false); err != nil {
		t.Fatal(err)
	}
	if got := categories(t, p.Engine, "alice"); !slices.Equal(got, want) {
		t.Errorf("after the next buy, categories = %v, want %v", got, want)
	}
}
