package similarity

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"agentrec/internal/profile"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// compactCosine scores a against b the way PaperSimilarity does: the
// package's cosine of a gather against a scatter.
func compactCosine(a, b vec) float64 {
	ca, cb := compactOf(a), compactOf(b)
	return cosine(gatherDot(ca, cb), ca.Norm(), cb.Norm())
}

func TestCosine(t *testing.T) {
	tests := []struct {
		name string
		a, b vec
		want float64
	}{
		{"identical", vec{"x": 1, "y": 2}, vec{"x": 1, "y": 2}, 1},
		{"orthogonal", vec{"x": 1}, vec{"y": 1}, 0},
		{"empty a", vec{}, vec{"x": 1}, 0},
		{"both empty", vec{}, vec{}, 0},
		{"scale invariant", vec{"x": 1, "y": 1}, vec{"x": 10, "y": 10}, 1},
		{"45 degrees", vec{"x": 1}, vec{"x": 1, "y": 1}, 1 / math.Sqrt2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := compactCosine(tt.a, tt.b); !almostEq(got, tt.want) {
				t.Errorf("Cosine = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCosineSymmetricProperty(t *testing.T) {
	fn := func(xs, ys []uint8) bool {
		a, b := vec{}, vec{}
		for i, x := range xs {
			a[string(rune('a'+i%8))] = float64(x)
		}
		for i, y := range ys {
			b[string(rune('a'+i%8))] = float64(y)
		}
		s1, s2 := compactCosine(a, b), compactCosine(b, a)
		return almostEq(s1, s2) && s1 >= 0 && s1 <= 1+1e-9
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func buyer(id, cat string, terms map[string]float64, times int) *profile.Profile {
	p, _ := profile.NewProfileAlpha(id, 1.0)
	for i := 0; i < times; i++ {
		p.Observe(profile.Evidence{Category: cat, Terms: terms, Behaviour: profile.BehaviourBuy})
	}
	return p
}

func TestPaperSimilarityAgreeingConsumers(t *testing.T) {
	x := buyer("x", "laptop", map[string]float64{"ssd": 1, "light": 0.5}, 3)
	y := buyer("y", "laptop", map[string]float64{"ssd": 1, "light": 0.5}, 3)
	res, err := PaperSimilarity(x, y, "laptop", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Discarded {
		t.Fatal("agreeing consumers discarded")
	}
	if !almostEq(res.Score, 1) {
		t.Errorf("Score = %v, want 1", res.Score)
	}
}

func TestPaperSimilarityDiscardGate(t *testing.T) {
	// Same direction of taste but very different intensity: x bought 10
	// times, y browsed once. Tx and Ty diverge, the gate fires.
	x := buyer("x", "laptop", map[string]float64{"ssd": 1}, 10)
	y := buyer("y", "laptop", map[string]float64{"ssd": 1}, 1)
	res, err := PaperSimilarity(x, y, "laptop", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Discarded {
		t.Fatalf("gate did not fire: Tx=%v Ty=%v", res.Tx, res.Ty)
	}
	if res.Score != 0 {
		t.Errorf("discarded Score = %v, want 0", res.Score)
	}
	if res.Raw <= 0.9 {
		t.Errorf("Raw should stay high for the ablation: %v", res.Raw)
	}
}

func TestPaperSimilarityToleranceWidensGate(t *testing.T) {
	x := buyer("x", "laptop", map[string]float64{"ssd": 1}, 4)
	y := buyer("y", "laptop", map[string]float64{"ssd": 1}, 3)
	// |4-3|/4 = 0.25
	strict, _ := PaperSimilarity(x, y, "laptop", 0.2)
	loose, _ := PaperSimilarity(x, y, "laptop", 0.3)
	if !strict.Discarded {
		t.Error("tolerance 0.2 should discard a 0.25 disagreement")
	}
	if loose.Discarded {
		t.Error("tolerance 0.3 should keep a 0.25 disagreement")
	}
}

func TestPaperSimilarityOneSidedKnowledgeDiscarded(t *testing.T) {
	x := buyer("x", "laptop", map[string]float64{"ssd": 1}, 2)
	y := buyer("y", "camera", map[string]float64{"lens": 1}, 2)
	res, _ := PaperSimilarity(x, y, "laptop", 0.5)
	if !res.Discarded {
		t.Error("pair with one-sided category knowledge must be discarded")
	}
}

func TestPaperSimilarityBothZeroNotDiscarded(t *testing.T) {
	x := buyer("x", "camera", map[string]float64{"lens": 1}, 1)
	y := buyer("y", "camera", map[string]float64{"lens": 1}, 1)
	// Neither knows "laptop": no evidence is not disagreement.
	res, _ := PaperSimilarity(x, y, "laptop", 0.1)
	if res.Discarded {
		t.Error("pair with no category evidence on either side was discarded")
	}
	if !almostEq(res.Score, 1) {
		t.Errorf("Score = %v (profiles identical elsewhere)", res.Score)
	}
}

func TestPaperSimilarityBadTolerance(t *testing.T) {
	x, y := buyer("x", "c", map[string]float64{"t": 1}, 1), buyer("y", "c", map[string]float64{"t": 1}, 1)
	for _, tol := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := PaperSimilarity(x, y, "c", tol); !errors.Is(err, ErrBadThreshold) {
			t.Errorf("tolerance %v accepted", tol)
		}
	}
}

func TestPaperSimilaritySymmetric(t *testing.T) {
	x := buyer("x", "laptop", map[string]float64{"ssd": 1, "gpu": 2}, 2)
	y := buyer("y", "laptop", map[string]float64{"ssd": 2, "gpu": 1}, 2)
	r1, _ := PaperSimilarity(x, y, "laptop", 0.5)
	r2, _ := PaperSimilarity(y, x, "laptop", 0.5)
	if !almostEq(r1.Score, r2.Score) || r1.Discarded != r2.Discarded {
		t.Errorf("asymmetric: %+v vs %+v", r1, r2)
	}
}

// TestPaperSimilarityCollidingKeys: "a/b"+"c" and "a"+"b"+"c" flatten to one
// key, and the pair's similarity is a function of the two profiles: the
// heavier of the colliding weights is the one scored, every time, by
// PaperSimilarity and TopK alike. Keeping whichever weight map iteration
// reached last gave 1/√2 or 3/√10 from one call to the next.
func TestPaperSimilarityCollidingKeys(t *testing.T) {
	x := profile.NewProfile("x")
	x.Categories["a/b"] = &profile.Category{Name: "a/b", Terms: map[string]float64{"c": 1}}
	x.Categories["a"] = &profile.Category{Name: "a", Terms: map[string]float64{"d": 1}, Subs: map[string]*profile.SubCategory{
		"b": {Name: "b", Terms: map[string]float64{"c": 3}},
	}}
	y := profile.NewProfile("y")
	y.Categories["a"] = &profile.Category{Name: "a", Terms: map[string]float64{}, Subs: map[string]*profile.SubCategory{
		"b": {Name: "b", Terms: map[string]float64{"c": 1}},
	}}
	want := 3 / math.Sqrt(10) // x = {a/b/c: 3, a/d: 1}, y = {a/b/c: 1}
	for i := 0; i < 100; i++ {
		res, err := PaperSimilarity(x, y, "a", 1)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(res.Raw, want) {
			t.Fatalf("call %d: Raw = %.17g, want %.17g", i, res.Raw, want)
		}
		got, err := TopK(y, []*profile.Profile{x}, "a", 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].Score != res.Raw {
			t.Fatalf("call %d: TopK = %+v, PaperSimilarity Raw %.17g", i, got, res.Raw)
		}
	}
}

func TestTopKRanksAndFilters(t *testing.T) {
	target := buyer("target", "laptop", map[string]float64{"ssd": 1, "light": 1}, 3)
	cands := []*profile.Profile{
		buyer("close", "laptop", map[string]float64{"ssd": 1, "light": 0.9}, 3),
		buyer("far", "laptop", map[string]float64{"gamer": 1}, 3),
		buyer("gated", "laptop", map[string]float64{"ssd": 1, "light": 1}, 30), // intensity mismatch
		buyer("target", "laptop", map[string]float64{"ssd": 1}, 3),             // self, skipped
	}
	got, err := TopK(target, cands, "laptop", 0.2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0].UserID != "close" {
		t.Fatalf("TopK = %+v", got)
	}
	for _, n := range got {
		if n.UserID == "gated" || n.UserID == "target" {
			t.Errorf("TopK kept %s", n.UserID)
		}
	}
}

func TestTopKAllWhenNegativeK(t *testing.T) {
	target := buyer("t", "c", map[string]float64{"x": 1}, 2)
	cands := []*profile.Profile{
		buyer("a", "c", map[string]float64{"x": 1}, 2),
		buyer("b", "c", map[string]float64{"x": 1}, 2),
	}
	got, err := TopK(target, cands, "c", 0.5, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("TopK(-1) = %d neighbors, want 2", len(got))
	}
}

func TestTopKDeterministicTieBreak(t *testing.T) {
	target := buyer("t", "c", map[string]float64{"x": 1}, 2)
	cands := []*profile.Profile{
		buyer("bbb", "c", map[string]float64{"x": 1}, 2),
		buyer("aaa", "c", map[string]float64{"x": 1}, 2),
	}
	for i := 0; i < 10; i++ {
		got, _ := TopK(target, cands, "c", 0.5, 2)
		if got[0].UserID != "aaa" {
			t.Fatalf("tie break not deterministic: %+v", got)
		}
	}
}

func TestTopKPropagatesBadTolerance(t *testing.T) {
	target := buyer("t", "c", map[string]float64{"x": 1}, 1)
	for _, tol := range []float64{2, -1, math.NaN()} {
		if _, err := TopK(target, []*profile.Profile{buyer("a", "c", map[string]float64{"x": 1}, 1)}, "c", tol, 1); !errors.Is(err, ErrBadThreshold) {
			t.Errorf("tolerance %v: err = %v, want ErrBadThreshold", tol, err)
		}
	}
}

// Property: the discard gate only ever zeroes scores; it never invents
// similarity. Score is either 0 or equals Raw.
func TestGateOnlyZeroesProperty(t *testing.T) {
	fn := func(nx, ny uint8) bool {
		x := buyer("x", "c", map[string]float64{"t": 1}, int(nx%20)+1)
		y := buyer("y", "c", map[string]float64{"t": 1}, int(ny%20)+1)
		res, err := PaperSimilarity(x, y, "c", 0.3)
		if err != nil {
			return false
		}
		if res.Discarded {
			return res.Score == 0
		}
		return almostEq(res.Score, res.Raw)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
