package catalog

import (
	"fmt"
	"sync"
	"testing"
)

func itemIDs(items []Item) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.ID
	}
	return out
}

func TestViewGroupsByCategory(t *testing.T) {
	c := New()
	for _, p := range []*Product{
		prod("l2", "laptop", 1, map[string]float64{"ssd": 1}),
		prod("c1", "camera", 1, map[string]float64{"lens": 1}),
		prod("l1", "laptop", 1, map[string]float64{"gpu": 1}),
	} {
		if err := c.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	v := c.View()
	if got := fmt.Sprint(itemIDs(v.Items("laptop"))); got != "[l1 l2]" {
		t.Errorf("Items(laptop) = %s, want [l1 l2]", got)
	}
	if got := fmt.Sprint(itemIDs(v.Items(""))); got != "[c1 l1 l2]" {
		t.Errorf("Items(\"\") = %s, want every product", got)
	}
	if len(v.Items("phone")) != 0 {
		t.Errorf("Items(phone) = %v, want none", v.Items("phone"))
	}
	it, ok := v.Lookup("l2")
	if !ok || it.Category != "laptop" || it.Terms["ssd"] != 1 {
		t.Errorf("Lookup(l2) = %+v, %v", it, ok)
	}
	if _, ok := v.Lookup("nope"); ok {
		t.Error("Lookup found a product that was never added")
	}
	// A category's slice cannot grow into its neighbour's.
	if l := v.Items("camera"); cap(l) != len(l) {
		t.Errorf("Items(camera) has spare capacity %d over length %d", cap(l), len(l))
	}
}

// TestViewRebuiltOnlyByContentChanges: Add, Upsert and Remove each show in
// the next View; AdjustStock hands back the very same view.
func TestViewRebuiltOnlyByContentChanges(t *testing.T) {
	c := New()
	if err := c.Add(prod("p1", "laptop", 1, map[string]float64{"ssd": 1})); err != nil {
		t.Fatal(err)
	}
	v1 := c.View()
	if c.View() != v1 {
		t.Fatal("View rebuilt with no write in between")
	}
	for i := 0; i < 3; i++ {
		if _, err := c.AdjustStock("p1", -1); err != nil {
			t.Fatal(err)
		}
		if c.View() != v1 {
			t.Fatal("AdjustStock rebuilt the view")
		}
	}

	if err := c.Upsert(&Product{ID: "p1", Category: "camera", SubCategory: "slr", Terms: map[string]float64{"lens": 2}}); err != nil {
		t.Fatal(err)
	}
	v2 := c.View()
	if v2 == v1 {
		t.Fatal("Upsert did not invalidate the view")
	}
	if len(v2.Items("laptop")) != 0 || len(v2.Items("camera")) != 1 {
		t.Fatalf("after Upsert: laptop %v, camera %v", v2.Items("laptop"), v2.Items("camera"))
	}
	if it, _ := v2.Lookup("p1"); it.SubCategory != "slr" || it.Terms["lens"] != 2 {
		t.Fatalf("after Upsert: %+v", it)
	}
	if it, _ := v1.Lookup("p1"); it.Category != "laptop" || it.Terms["ssd"] != 1 {
		t.Fatalf("a view already taken changed under its holder: %+v", it)
	}

	if err := c.Add(prod("p2", "camera", 1, nil)); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(itemIDs(c.View().Items("camera"))); got != "[p1 p2]" {
		t.Fatalf("after Add: %s", got)
	}
	if err := c.Remove("p1"); err != nil {
		t.Fatal(err)
	}
	v3 := c.View()
	if _, ok := v3.Lookup("p1"); ok || fmt.Sprint(itemIDs(v3.Items(""))) != "[p2]" {
		t.Fatalf("after Remove: %v", itemIDs(v3.Items("")))
	}
	// Failed writes change nothing and keep the view.
	if err := c.Remove("p1"); err == nil {
		t.Fatal("second Remove succeeded")
	}
	if err := c.Add(prod("p2", "camera", 1, nil)); err == nil {
		t.Fatal("duplicate Add succeeded")
	}
	if c.View() != v3 {
		t.Fatal("a refused write rebuilt the view")
	}
}

// TestViewConcurrentWithWrites walks views while stock moves and products
// are replaced (run under -race): a reader sees whole products only.
func TestViewConcurrentWithWrites(t *testing.T) {
	c := New()
	for i := 0; i < 50; i++ {
		if err := c.Add(prod(fmt.Sprintf("p%02d", i), fmt.Sprintf("cat%d", i%4), 1, map[string]float64{"t": 1, "gen": 0})); err != nil {
			t.Fatal(err)
		}
	}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	writers.Add(2)
	go func() {
		defer writers.Done()
		for i := 0; i < 2000; i++ {
			if _, err := c.AdjustStock(fmt.Sprintf("p%02d", i%50), 1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 1; i <= 300; i++ {
			id := fmt.Sprintf("p%02d", i%50)
			if err := c.Upsert(prod(id, fmt.Sprintf("cat%d", (i%50)%4), 1, map[string]float64{"t": float64(i), "gen": float64(i)})); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := c.View()
				n := 0
				for cat := 0; cat < 4; cat++ {
					for _, it := range v.Items(fmt.Sprintf("cat%d", cat)) {
						if it.Terms["gen"] != 0 && it.Terms["t"] != it.Terms["gen"] {
							t.Errorf("torn product %s: %v", it.ID, it.Terms)
							return
						}
						n++
					}
				}
				if n != 50 {
					t.Errorf("view lists %d products, want 50", n)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}
