package similarity

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"agentrec/internal/profile"
	"agentrec/internal/workload"
)

func compactOf(v Vec) *profile.Compact {
	c := new(profile.Compact)
	c.Set(v)
	return c
}

// mergeJoinDot is the reference the gather is held to: the sparse dot
// product of two compact vectors by one merge-join over their ascending id
// slices, adding only the matching products, in ascending id order.
func mergeJoinDot(c, o *profile.Compact) float64 {
	a, b := c.IDs, o.IDs
	aw, bw := c.Weights[:len(a)], o.Weights[:len(b)]
	var dot float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		if x == y {
			dot += aw[i] * bw[j]
		}
		if x <= y {
			i++
		}
		if y <= x {
			j++
		}
	}
	return dot
}

// gatherDot scores o against c the way TopKStream does: c scattered into a
// dense table, o gathered from it.
func gatherDot(c, o *profile.Compact) float64 {
	return o.Gather(c.Scatter(nil))
}

// checkGather requires the gather to give the merge-join's bits for a and
// b, with either one scattered.
func checkGather(t *testing.T, name string, a, b *profile.Compact) {
	t.Helper()
	for _, p := range [][2]*profile.Compact{{a, b}, {b, a}} {
		want, got := mergeJoinDot(p[0], p[1]), gatherDot(p[0], p[1])
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: gather %.17g (%#x), merge-join %.17g (%#x)", name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestCompactDotMatchesMapDot is the kernel's property test: the gather
// over interned ids gives the map-based Dot, up to summation order, on
// random vectors, on the benchmark's generated profiles, and on the edges.
func TestCompactDotMatchesMapDot(t *testing.T) {
	check := func(name string, a, b Vec) {
		t.Helper()
		want := Dot(a, b)
		for _, got := range []float64{gatherDot(compactOf(a), compactOf(b)), gatherDot(compactOf(b), compactOf(a))} {
			if math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Fatalf("%s: gather dot %v, map dot %v", name, got, want)
			}
		}
	}
	check("empty/empty", Vec{}, Vec{})
	check("empty/nil", Vec{}, nil)
	check("empty/full", Vec{}, Vec{"a": 1, "b": 2})
	check("disjoint", Vec{"a": 1, "c": 3}, Vec{"b": 2, "d": 4})
	check("identical", Vec{"a": 1.5, "b": 2.5, "c": 0}, Vec{"a": 1.5, "b": 2.5, "c": 0})
	check("nested", Vec{"b": 2}, Vec{"a": 1, "b": 2, "c": 3})

	rng := rand.New(rand.NewPCG(3, 9))
	random := func() Vec {
		v := Vec{}
		for n := rng.IntN(60); n > 0; n-- {
			v[fmt.Sprintf("prop/t%03d", rng.IntN(200))] = rng.Float64() * 10
		}
		return v
	}
	for i := 0; i < 500; i++ {
		check("random", random(), random())
	}

	sums := generatedSummaries(t, workload.Config{Seed: 5, Users: 60, Products: 1200, Categories: 16})
	for _, a := range sums {
		for _, b := range sums {
			want, got := Dot(a.Vec, b.Vec), gatherDot(a.Compact, b.Compact)
			if math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Fatalf("%s·%s: gather dot %v, map dot %v", a.UserID, b.UserID, got, want)
			}
		}
	}
}

func generatedSummaries(t *testing.T, cfg workload.Config) []*profile.Summary {
	t.Helper()
	u, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]*profile.Summary, len(u.Users))
	for i, usr := range u.Users {
		p, err := u.BuildProfile(usr)
		if err != nil {
			t.Fatal(err)
		}
		sums[i] = p.Summary()
	}
	return sums
}

// TestCompactGatherMatchesMergeJoin: the gather and the merge-join give the
// same bits, not merely close values, so replacing one by the other moves no
// score, ranking or digest.
func TestCompactGatherMatchesMergeJoin(t *testing.T) {
	checkGather(t, "empty/empty", compactOf(Vec{}), compactOf(Vec{}))
	checkGather(t, "empty/nil", compactOf(Vec{}), new(profile.Compact))
	checkGather(t, "nil/full", new(profile.Compact), compactOf(Vec{"a": 1, "b": 2}))
	checkGather(t, "disjoint", compactOf(Vec{"a": 1, "c": 3}), compactOf(Vec{"b": 2, "d": 4}))
	checkGather(t, "identical", compactOf(Vec{"a": 0.1, "b": 0.2, "c": 0}), compactOf(Vec{"a": 0.1, "b": 0.2, "c": 0}))
	checkGather(t, "nested", compactOf(Vec{"b": 0.3}), compactOf(Vec{"a": 0.7, "b": 0.1, "c": 3}))

	// "a/b"+"c" and "a"+"b/c" flatten to one key, which the summary keeps
	// once, at the heavier weight.
	colliding := profile.NewProfile("x")
	colliding.Categories["a/b"] = &profile.Category{Name: "a/b", Terms: map[string]float64{"c": 1, "d": 0.25}}
	colliding.Categories["a"] = &profile.Category{Name: "a", Terms: map[string]float64{}, Subs: map[string]*profile.SubCategory{
		"b": {Name: "b", Terms: map[string]float64{"c": 3}},
	}}
	checkGather(t, "colliding keys", colliding.Summary().Compact, compactOf(Vec{"a/b/c": 0.3, "a/b/d": 1.7, "e": 2}))

	// A candidate can hold terms interned after the target was scattered;
	// their ids lie past the table, and the gather stops at the first.
	target := compactOf(Vec{"gather/early1": 0.4, "gather/early2": 1.1})
	dense := target.Scatter(nil)
	late := compactOf(Vec{"gather/early2": 0.9, "gather/late1": 5, "gather/late2": 7})
	if last := late.IDs[len(late.IDs)-1]; int(last) < len(dense) {
		t.Fatalf("late id %d lies inside the %d-entry table; the case tests nothing", last, len(dense))
	}
	if got, want := late.Gather(dense), mergeJoinDot(target, late); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("late terms: gather %.17g, merge-join %.17g", got, want)
	}
	checkGather(t, "late terms", target, late)

	// Every pair of the benchmark's generated consumers, each target
	// scattered once and its table reused, as a search does.
	sums := generatedSummaries(t, workload.Config{Seed: 7, Users: 2000, Products: 1200, Categories: 16})
	dense = nil
	for _, a := range sums {
		dense = a.Compact.Scatter(dense)
		for _, b := range sums {
			want, got := mergeJoinDot(a.Compact, b.Compact), b.Compact.Gather(dense)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s·%s: gather %.17g, merge-join %.17g", a.UserID, b.UserID, got, want)
			}
		}
		a.Compact.Unscatter(dense)
	}
	for id, w := range dense[:cap(dense)] {
		if w != 0 {
			t.Fatalf("table entry %d is %v after Unscatter", id, w)
		}
	}
}

// FuzzCompactGather: any two vectors the bytes spell score the same bits
// through the gather as through the merge-join, with either one scattered.
// Each 4-byte record puts one term (of 256) into the first vector, the
// second, or both, at a finite weight of either sign, zero included.
func FuzzCompactGather(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 10, 40, 1, 2, 20, 40})
	f.Add([]byte{1, 3, 10, 40, 2, 3, 0, 0, 3, 1, 0x80, 63, 200, 2, 7, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := Vec{}, Vec{}
		for ; len(data) >= 4; data = data[4:] {
			key := fmt.Sprintf("fuzz/t%03d", data[0])
			w := math.Ldexp(float64(int8(data[2])), int(data[3]%64)-40)
			if data[1]&1 != 0 {
				a[key] = w
			}
			if data[1]&2 != 0 {
				b[key] = w * 0.75
			}
		}
		checkGather(t, "fuzz", compactOf(a), compactOf(b))
	})
}

// TestTopKStreamPoolHygiene: the pooled dense table goes back to the pool
// all zero. Two targets whose ids interleave run in turn (A, B, A, ...), and
// each search scores every candidate as the merge-join does; an entry a
// search left behind would add to the next search's scores.
func TestTopKStreamPoolHygiene(t *testing.T) {
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("hygiene/t%02d", i)
		compactOf(Vec{keys[i]: 1}) // intern in this order
	}
	a, b := Vec{}, Vec{}
	for i, k := range keys {
		if i%2 == 0 {
			a[k] = float64(i + 1)
		} else {
			b[k] = float64(i+1) / 3
		}
	}
	rng := rand.New(rand.NewPCG(4, 4))
	cands := make([]Candidate, 40)
	for i := range cands {
		v := Vec{}
		for _, k := range keys {
			if rng.IntN(2) == 0 {
				v[k] = 0.1 + rng.Float64()
			}
		}
		c := compactOf(v)
		cands[i] = Candidate{UserID: fmt.Sprintf("c%02d", i), Vec: v, Ty: 1, Norm: c.Norm(), Compact: c}
	}
	seq := func(yield func(Candidate) bool) {
		for _, c := range cands {
			if !yield(c) {
				return
			}
		}
	}
	for round, target := range []Vec{a, b, a, b, a} {
		got, err := TopKStream("self", target, 1, 1, seq, -1)
		if err != nil {
			t.Fatal(err)
		}
		tc := compactOf(target)
		want := map[string]float64{}
		for _, c := range cands {
			if dot := mergeJoinDot(tc, c.Compact); dot > 0 {
				want[c.UserID] = dot / (tc.Norm() * c.Norm)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: %d neighbours, want %d", round, len(got), len(want))
		}
		for _, n := range got {
			if w, ok := want[n.UserID]; !ok || math.Float64bits(n.Score) != math.Float64bits(w) {
				t.Fatalf("round %d: %s scored %.17g, merge-join gives %.17g", round, n.UserID, n.Score, w)
			}
		}
	}
}

// TestTopKStreamEmptyTargetReadsNoCandidate: a target with no weight has no
// neighbour, so the search answers before reading the candidate stream
// instead of walking all of it to keep nothing.
func TestTopKStreamEmptyTargetReadsNoCandidate(t *testing.T) {
	yields := 0
	seq := func(yield func(Candidate) bool) {
		for i := 0; i < 100; i++ {
			yields++
			if !yield(Candidate{UserID: fmt.Sprint(i), Vec: Vec{"x": 1}, Ty: 1}) {
				return
			}
		}
	}
	for _, target := range []Vec{nil, {}, {"x": 0}} {
		got, err := TopKStream("self", target, 0, 0.5, seq, 10)
		if err != nil || len(got) != 0 {
			t.Fatalf("target %v: %+v, %v; want no neighbours", target, got, err)
		}
	}
	if yields != 0 {
		t.Fatalf("an empty target read %d candidates, want 0", yields)
	}
}

// TestTopKZeroK: k = 0 asks for nobody and used to index an empty heap on
// the first scoring candidate.
func TestTopKZeroK(t *testing.T) {
	target := buyer("t", "c", map[string]float64{"x": 1}, 2)
	cands := []*profile.Profile{buyer("a", "c", map[string]float64{"x": 1}, 2)}
	got, err := TopK(target, cands, "c", 0.5, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("TopK(k=0) = %+v, %v; want no neighbours", got, err)
	}
	if _, err := TopK(target, cands, "c", 2, 0); err == nil {
		t.Fatal("TopK(k=0) accepted a tolerance outside [0, 1]")
	}
}

// TestTopKStreamCompactMatchesMap: candidates that carry a compact form
// rank exactly as the same candidates without one, and their scores repeat
// bit for bit across independently computed summaries of equal content.
func TestTopKStreamCompactMatchesMap(t *testing.T) {
	u, err := workload.Generate(workload.Config{Seed: 8, Users: 300, Products: 600, Categories: 6})
	if err != nil {
		t.Fatal(err)
	}
	build := func() []*profile.Summary {
		out := make([]*profile.Summary, len(u.Users))
		for i, usr := range u.Users {
			p, err := u.BuildProfile(usr)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = p.Clone().Summary()
		}
		return out
	}
	rank := func(sums []*profile.Summary, target *profile.Summary, cat string, compact bool) []Neighbor {
		seq := func(yield func(Candidate) bool) {
			for _, s := range sums {
				c := Candidate{UserID: s.UserID, Vec: s.Vec, Ty: s.Prefs[cat], Norm: s.Norm}
				if compact {
					c.Compact = s.Compact
				}
				if !yield(c) {
					return
				}
			}
		}
		got, err := TopKStream(target.UserID, target.Vec, target.Prefs[cat], 0.5, seq, 10)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	first, second := build(), build()
	scored := 0
	for i, target := range first[:40] {
		for cat := range target.Prefs {
			viaMap, viaCompact := rank(first, target, cat, false), rank(first, target, cat, true)
			if len(viaMap) != len(viaCompact) {
				t.Fatalf("%s/%s: %d neighbours over maps, %d over compact forms", target.UserID, cat, len(viaMap), len(viaCompact))
			}
			for j := range viaMap {
				m, c := viaMap[j], viaCompact[j]
				if m.UserID != c.UserID || math.Abs(m.Score-c.Score) > 1e-12 {
					t.Fatalf("%s/%s rank %d: map %s %.17g, compact %s %.17g", target.UserID, cat, j, m.UserID, m.Score, c.UserID, c.Score)
				}
			}
			// Score only: Tx and Ty are the summaries' preference sums, which
			// are not part of the reproducibility contract.
			score := func(n Neighbor) Neighbor { return Neighbor{UserID: n.UserID, Score: n.Score} }
			again := rank(second, second[i], cat, true)
			if !slices.EqualFunc(viaCompact, again, func(a, b Neighbor) bool { return score(a) == score(b) }) {
				t.Fatalf("%s/%s: scores differ between two summaries of the same content:\n%+v\n%+v", target.UserID, cat, viaCompact, again)
			}
			scored += len(viaCompact)
		}
	}
	if scored == 0 {
		t.Fatal("no neighbour was scored; the test compares nothing")
	}
}
