package profile

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func evBuy(cat string, terms map[string]float64) Evidence {
	return Evidence{Category: cat, Terms: terms, Behaviour: BehaviourBuy}
}

func TestObserveAppliesUpdateRule(t *testing.T) {
	p, err := NewProfileAlpha("u1", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// W' = W + α·w_ji·q = 0 + 0.5·0.8·1.0 = 0.4
	if err := p.Observe(evBuy("laptop", map[string]float64{"ssd": 0.8})); err != nil {
		t.Fatal(err)
	}
	got := p.Categories["laptop"].Terms["ssd"]
	if math.Abs(got-0.4) > 1e-12 {
		t.Errorf("weight = %v, want 0.4", got)
	}
	// Second observation accumulates: 0.4 + 0.5·0.8·1.0 = 0.8
	p.Observe(evBuy("laptop", map[string]float64{"ssd": 0.8}))
	got = p.Categories["laptop"].Terms["ssd"]
	if math.Abs(got-0.8) > 1e-12 {
		t.Errorf("weight after second observe = %v, want 0.8", got)
	}
}

func TestBehaviourQualityOrdering(t *testing.T) {
	// The paper's observational-rating idea: stronger actions move the
	// profile more. query < negotiate < bid < buy.
	qs := []Behaviour{BehaviourQuery, BehaviourNegotiate, BehaviourBid, BehaviourBuy}
	for i := 1; i < len(qs); i++ {
		if qs[i].Quality() <= qs[i-1].Quality() {
			t.Errorf("%v quality %v not > %v quality %v",
				qs[i], qs[i].Quality(), qs[i-1], qs[i-1].Quality())
		}
	}
	if BehaviourBuy.Quality() != 1.0 {
		t.Errorf("buy quality = %v, want 1.0", BehaviourBuy.Quality())
	}
	if Behaviour(99).Quality() != 0 {
		t.Error("unknown behaviour must have zero quality")
	}
}

func TestBehaviourString(t *testing.T) {
	if BehaviourBuy.String() != "buy" || BehaviourQuery.String() != "query" {
		t.Error("behaviour names wrong")
	}
	if Behaviour(99).String() == "" {
		t.Error("unknown behaviour must still render")
	}
}

func TestObserveSubCategory(t *testing.T) {
	p := NewProfile("u1")
	ev := Evidence{
		Category:    "computer",
		Terms:       map[string]float64{"portable": 1},
		SubCategory: "notebook",
		SubTerms:    map[string]float64{"13inch": 1},
		Behaviour:   BehaviourBuy,
	}
	if err := p.Observe(ev); err != nil {
		t.Fatal(err)
	}
	sub := p.Categories["computer"].Subs["notebook"]
	if sub == nil || sub.Terms["13inch"] <= 0 {
		t.Fatalf("sub-category not updated: %+v", p.Categories["computer"])
	}
}

func TestObserveValidation(t *testing.T) {
	p := NewProfile("u1")
	if err := p.Observe(Evidence{Behaviour: BehaviourBuy}); !errors.Is(err, ErrNoCategory) {
		t.Errorf("missing category: %v", err)
	}
	err := p.Observe(Evidence{Category: "c", Terms: map[string]float64{"t": -1}, Behaviour: BehaviourBuy})
	if !errors.Is(err, ErrBadEvidence) {
		t.Errorf("negative weight: %v", err)
	}
	err = p.Observe(Evidence{Category: "c", SubCategory: "s", SubTerms: map[string]float64{"t": math.NaN()}, Behaviour: BehaviourBuy})
	if !errors.Is(err, ErrBadEvidence) {
		t.Errorf("NaN sub weight: %v", err)
	}
	err = p.Observe(Evidence{Category: "c", Terms: map[string]float64{"t": math.Inf(1)}})
	if !errors.Is(err, ErrBadEvidence) {
		t.Errorf("+Inf weight: %v", err)
	}
	err = p.Observe(Evidence{Category: "c", SubCategory: "s", SubTerms: map[string]float64{"t": math.Inf(1)}, Behaviour: BehaviourBuy})
	if !errors.Is(err, ErrBadEvidence) {
		t.Errorf("+Inf sub weight: %v", err)
	}
	if len(p.Categories) != 0 || p.Observed != 0 {
		t.Errorf("refused evidence changed the profile: %+v", p)
	}
}

// TestObserveSaturatesWeights: finite evidence whose sum would overflow
// saturates at the largest float64, so every weight stays finite.
func TestObserveSaturatesWeights(t *testing.T) {
	p := NewProfile("u1")
	huge := Evidence{Category: "c", Terms: map[string]float64{"t": math.MaxFloat64},
		SubCategory: "s", SubTerms: map[string]float64{"u": math.MaxFloat64}, Behaviour: BehaviourBuy}
	for range 6 {
		if err := p.Observe(huge); err != nil {
			t.Fatal(err)
		}
	}
	// Gains below the clamp's threshold, at the ceiling, stay there too.
	below := Evidence{Category: "c", Terms: map[string]float64{"t": 0x1p970}, Behaviour: BehaviourBuy}
	for range 3 {
		if err := p.Observe(below); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []float64{p.Categories["c"].Terms["t"], p.Categories["c"].Subs["s"].Terms["u"]} {
		if w != math.MaxFloat64 {
			t.Fatalf("weight summed past the largest float64 = %v, want it saturated there", w)
		}
	}
}

func TestNewProfileAlphaValidation(t *testing.T) {
	for _, alpha := range []float64{0, -0.1, 1.5} {
		if _, err := NewProfileAlpha("u", alpha); !errors.Is(err, ErrBadAlpha) {
			t.Errorf("alpha %v accepted", alpha)
		}
	}
	if _, err := NewProfileAlpha("u", 1.0); err != nil {
		t.Errorf("alpha 1.0 rejected: %v", err)
	}
}

func TestQueryMovesProfileLessThanBuy(t *testing.T) {
	q := NewProfile("u1")
	b := NewProfile("u2")
	terms := map[string]float64{"gpu": 1}
	q.Observe(Evidence{Category: "pc", Terms: terms, Behaviour: BehaviourQuery})
	b.Observe(Evidence{Category: "pc", Terms: terms, Behaviour: BehaviourBuy})
	if q.Categories["pc"].Terms["gpu"] >= b.Categories["pc"].Terms["gpu"] {
		t.Error("query moved profile at least as much as buy")
	}
}

func TestDecay(t *testing.T) {
	p := NewProfile("u1")
	p.Observe(evBuy("c", map[string]float64{"t": 1}))
	before := p.Categories["c"].Terms["t"]
	p.Decay(0.5)
	after := p.Categories["c"].Terms["t"]
	if math.Abs(after-before/2) > 1e-12 {
		t.Errorf("decay: %v -> %v", before, after)
	}
	// Factor >= 1 is a no-op; negative clamps to zero-out.
	p.Decay(1.5)
	if p.Categories["c"].Terms["t"] != after {
		t.Error("decay >= 1 changed weights")
	}
	p.Decay(-1)
	if p.Categories["c"].Terms["t"] != 0 {
		t.Error("negative decay factor did not clamp to 0")
	}
}

func TestDecayReachesSubTerms(t *testing.T) {
	p := NewProfile("u1")
	p.Observe(Evidence{
		Category: "c", Terms: map[string]float64{"t": 1},
		SubCategory: "s", SubTerms: map[string]float64{"u": 1},
		Behaviour: BehaviourBuy,
	})
	p.Decay(0.5)
	if got := p.Categories["c"].Subs["s"].Terms["u"]; math.Abs(got-0.15) > 1e-12 {
		t.Errorf("sub term after decay = %v, want 0.15", got)
	}
}

func TestPrune(t *testing.T) {
	p := NewProfile("u1")
	p.Observe(evBuy("keep", map[string]float64{"heavy": 10}))
	p.Observe(Evidence{Category: "drop", Terms: map[string]float64{"light": 0.001}, Behaviour: BehaviourQuery})
	p.Prune(0.01)
	if _, ok := p.Categories["drop"]; ok {
		t.Error("light category survived prune")
	}
	if _, ok := p.Categories["keep"]; !ok {
		t.Error("heavy category pruned")
	}
}

func TestPruneEmptySubCategories(t *testing.T) {
	p := NewProfile("u1")
	p.Observe(Evidence{
		Category: "c", Terms: map[string]float64{"big": 100},
		SubCategory: "s", SubTerms: map[string]float64{"tiny": 0.0001},
		Behaviour: BehaviourBuy,
	})
	p.Prune(0.01)
	if _, ok := p.Categories["c"].Subs["s"]; ok {
		t.Error("empty sub-category survived prune")
	}
}

func TestPreferenceValueSumsEverything(t *testing.T) {
	p, _ := NewProfileAlpha("u1", 1.0)
	p.Observe(Evidence{
		Category: "c", Terms: map[string]float64{"a": 1, "b": 2},
		SubCategory: "s", SubTerms: map[string]float64{"d": 3},
		Behaviour: BehaviourBuy,
	})
	if got := p.PreferenceValue("c"); math.Abs(got-6) > 1e-12 {
		t.Errorf("PreferenceValue = %v, want 6", got)
	}
	if p.PreferenceValue("missing") != 0 {
		t.Error("missing category must have zero preference")
	}
}

func TestVectorKeys(t *testing.T) {
	p, _ := NewProfileAlpha("u1", 1.0)
	p.Observe(Evidence{
		Category: "cat", Terms: map[string]float64{"t": 1},
		SubCategory: "sub", SubTerms: map[string]float64{"u": 2},
		Behaviour: BehaviourBuy,
	})
	s := p.Summary()
	if w, ok := weightOf(s, "cat/t"); w != 1 {
		t.Errorf("cat/t = %v (held: %v)", w, ok)
	}
	if w, ok := weightOf(s, "cat/sub/u"); w != 2 {
		t.Errorf("cat/sub/u = %v (held: %v)", w, ok)
	}
	if len(s.Vec.IDs) != 2 {
		t.Errorf("vector holds %d terms, want 2", len(s.Vec.IDs))
	}
}

// weightOf returns the weight s.Vec holds under the flattened key, and
// whether it holds the key at all.
func weightOf(s *Summary, key string) (float64, bool) {
	terms.mu.RLock()
	id, ok := terms.ids[key]
	terms.mu.RUnlock()
	if !ok {
		return 0, false
	}
	i, ok := slices.BinarySearch(s.Vec.IDs, id)
	if !ok {
		return 0, false
	}
	return s.Vec.Weights[i], true
}

// flatten is the map oracle of Summary.Vec: the profile's terms keyed
// "category/term" and "category/sub/term". Two paths that spell one key
// keep whichever this walk reaches last.
func flatten(p *Profile) map[string]float64 {
	out := make(map[string]float64)
	for cname, cat := range p.Categories {
		for term, w := range cat.Terms {
			out[cname+"/"+term] = w
		}
		for sname, sub := range cat.Subs {
			for term, w := range sub.Terms {
				out[cname+"/"+sname+"/"+term] = w
			}
		}
	}
	return out
}

func TestTopCategoriesAndTerms(t *testing.T) {
	p, _ := NewProfileAlpha("u1", 1.0)
	p.Observe(evBuy("strong", map[string]float64{"x": 5}))
	p.Observe(evBuy("weak", map[string]float64{"x": 1}))
	top := p.TopCategories(1)
	if len(top) != 1 || top[0].Term != "strong" {
		t.Errorf("TopCategories = %v", top)
	}
	all := p.TopCategories(-1)
	if len(all) != 2 {
		t.Errorf("TopCategories(-1) = %v", all)
	}
}

func TestTopDeterministicOnTies(t *testing.T) {
	p, _ := NewProfileAlpha("u1", 1.0)
	for _, cat := range []string{"b", "a", "z"} {
		p.Observe(evBuy(cat, map[string]float64{"x": 1}))
	}
	for i := 0; i < 10; i++ {
		cats := p.TopCategories(3)
		if cats[0].Term != "a" || cats[1].Term != "b" || cats[2].Term != "z" {
			t.Fatalf("tie order not deterministic: %v", cats)
		}
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	p, _ := NewProfileAlpha("u1", 0.7)
	p.Observe(Evidence{
		Category: "c", Terms: map[string]float64{"t": 1},
		SubCategory: "s", SubTerms: map[string]float64{"u": 1},
		Behaviour: BehaviourBid, At: time.Now(),
	})
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if q.UserID != "u1" || q.Alpha != 0.7 || q.Observed != 1 {
		t.Errorf("round trip lost header: %+v", q)
	}
	if math.Abs(q.Categories["c"].Terms["t"]-p.Categories["c"].Terms["t"]) > 1e-15 {
		t.Error("round trip lost weights")
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("{nope")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestUnmarshalEmptyObjectUsable(t *testing.T) {
	p, err := Unmarshal([]byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	// Must be usable: nil maps repaired, alpha defaulted.
	if err := p.Observe(evBuy("c", map[string]float64{"t": 1})); err != nil {
		t.Fatal(err)
	}
	if p.Alpha != DefaultAlpha {
		t.Errorf("Alpha = %v", p.Alpha)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p, _ := NewProfileAlpha("u1", 1.0)
	p.Observe(Evidence{
		Category: "c", Terms: map[string]float64{"t": 1},
		SubCategory: "s", SubTerms: map[string]float64{"u": 1},
		Behaviour: BehaviourBuy,
	})
	c := p.Clone()
	c.Categories["c"].Terms["t"] = 99
	c.Categories["c"].Subs["s"].Terms["u"] = 99
	if p.Categories["c"].Terms["t"] == 99 || p.Categories["c"].Subs["s"].Terms["u"] == 99 {
		t.Error("Clone shares maps with original")
	}
}

func TestTermCount(t *testing.T) {
	p := NewProfile("u1")
	p.Observe(Evidence{
		Category: "c", Terms: map[string]float64{"a": 1, "b": 1},
		SubCategory: "s", SubTerms: map[string]float64{"d": 1},
		Behaviour: BehaviourBuy,
	})
	if got := p.TermCount(); got != 3 {
		t.Errorf("TermCount = %d, want 3", got)
	}
}

// Property: weights never decrease under Observe (all evidence positive),
// and Observed counts every accepted observation.
func TestObserveMonotoneProperty(t *testing.T) {
	fn := func(weights []float64, behaviours []uint8) bool {
		p := NewProfile("u")
		count := 0
		for i, w := range weights {
			b := BehaviourQuery
			if len(behaviours) > 0 {
				b = Behaviour(behaviours[i%len(behaviours)]%4 + 1)
			}
			w = math.Abs(w)
			if math.IsInf(w, 0) || math.IsNaN(w) {
				continue
			}
			before := p.Categories["c"]
			var beforeW float64
			if before != nil {
				beforeW = before.Terms["t"]
			}
			if err := p.Observe(Evidence{Category: "c", Terms: map[string]float64{"t": w}, Behaviour: b}); err != nil {
				return false
			}
			count++
			if p.Categories["c"].Terms["t"] < beforeW {
				return false
			}
		}
		return p.Observed == count
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Marshal/Unmarshal is lossless for the vector view.
func TestSerializationLosslessProperty(t *testing.T) {
	fn := func(catSeed, termSeed uint8, w float64) bool {
		w = math.Abs(w)
		if math.IsInf(w, 0) || math.IsNaN(w) || w > 1e100 {
			return true
		}
		p, _ := NewProfileAlpha("u", 1.0)
		cat := string(rune('a' + catSeed%5))
		term := string(rune('k' + termSeed%5))
		p.Observe(Evidence{Category: cat, Terms: map[string]float64{term: w}, Behaviour: BehaviourBuy})
		data, err := p.Marshal()
		if err != nil {
			return false
		}
		q, err := Unmarshal(data)
		if err != nil {
			return false
		}
		v1, v2 := flatten(p), flatten(q)
		if len(v1) != len(v2) {
			return false
		}
		for k, x := range v1 {
			if math.Abs(v2[k]-x) > 1e-9*math.Max(1, math.Abs(x)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Convergence: repeated observation of the same merchandise drives the
// relative ordering of term weights toward the merchandise's term profile —
// the "learning" property the mechanism relies on (F4.4).
func TestRepeatedObservationConverges(t *testing.T) {
	p, _ := NewProfileAlpha("u", 0.1)
	doc := map[string]float64{"dominant": 1.0, "minor": 0.1}
	for i := 0; i < 100; i++ {
		p.Observe(evBuy("c", doc))
	}
	terms := p.Categories["c"].Terms
	ratio := terms["dominant"] / terms["minor"]
	if math.Abs(ratio-10) > 1e-6 {
		t.Errorf("weight ratio = %v, want 10 (the document's term ratio)", ratio)
	}
}

// TestPreferenceValueSaturates: weights each at the largest float64 sum to
// it, not to +Inf, so the Fig 4.5 gate still compares two numbers and
// fires against a consumer with far less evidence.
func TestPreferenceValueSaturates(t *testing.T) {
	p := NewProfile("u1")
	p.Categories["c"] = &Category{Name: "c", Terms: map[string]float64{"a": math.MaxFloat64, "b": math.MaxFloat64},
		Subs: map[string]*SubCategory{"s": {Name: "s", Terms: map[string]float64{"d": math.MaxFloat64}}}}
	got := p.PreferenceValue("c")
	if got != math.MaxFloat64 {
		t.Fatalf("PreferenceValue = %v, want the largest float64", got)
	}
	if s := p.Summary(); s.Prefs["c"] != math.MaxFloat64 || math.IsInf(s.Norm, 0) || math.IsNaN(s.Norm) {
		t.Fatalf("summary prefs %v, norm %v", s.Prefs, s.Norm)
	}
}

// TestCloneUTF8RefusesNonFiniteWeights: a NaN or infinite weight, in a
// category's terms or a sub-category's, is refused with ErrBadEvidence by
// the copy's own walk; a negative one passes.
func TestCloneUTF8RefusesNonFiniteWeights(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		for _, sub := range []bool{false, true} {
			p := NewProfile("u1")
			cat := &Category{Name: "c", Terms: map[string]float64{"a": 1}}
			if sub {
				cat.Subs = map[string]*SubCategory{"s": {Name: "s", Terms: map[string]float64{"d": w}}}
			} else {
				cat.Terms["b"] = w
			}
			p.Categories["c"] = cat
			_, valid, err := p.CloneUTF8()
			if !valid {
				t.Fatalf("weight %v: keys reported invalid", w)
			}
			if refused := errors.Is(err, ErrBadEvidence); refused != (w != -1) {
				t.Errorf("weight %v (sub %v): err %v", w, sub, err)
			}
		}
	}
}
