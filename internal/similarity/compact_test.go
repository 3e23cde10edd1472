package similarity

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"agentrec/internal/profile"
	"agentrec/internal/workload"
)

// vec is a test vector keyed by flattened term: "c/t" is term t of
// category c.
type vec = map[string]float64

// compactOf interns v the one way the engine does, as the Summary of a
// profile holding v's terms. A key without a "/" is the category of an
// empty term.
func compactOf(v vec) *profile.Compact {
	p := profile.NewProfile("")
	for key, w := range v {
		name, term, _ := strings.Cut(key, "/")
		cat := p.Categories[name]
		if cat == nil {
			cat = &profile.Category{Name: name, Terms: map[string]float64{}}
			p.Categories[name] = cat
		}
		cat.Terms[term] = w
	}
	return p.Summary().Vec
}

// mapDot is the map oracle of the dot product: keys matched by string.
func mapDot(a, b vec) float64 {
	var dot float64
	for k, x := range a {
		if y, ok := b[k]; ok {
			dot += x * y
		}
	}
	return dot
}

// flatten is the map oracle of Summary.Vec: p's terms keyed "category/term"
// and "category/sub/term".
func flatten(p *profile.Profile) vec {
	out := vec{}
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
// over interned ids gives the map oracle's dot, up to summation order, on
// random vectors, on the benchmark's generated profiles, and on the edges.
func TestCompactDotMatchesMapDot(t *testing.T) {
	check := func(name string, a, b vec) {
		t.Helper()
		want := mapDot(a, b)
		for _, got := range []float64{gatherDot(compactOf(a), compactOf(b)), gatherDot(compactOf(b), compactOf(a))} {
			if math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Fatalf("%s: gather dot %v, map dot %v", name, got, want)
			}
		}
	}
	check("empty/empty", vec{}, vec{})
	check("empty/nil", vec{}, nil)
	check("empty/full", vec{}, vec{"a": 1, "b": 2})
	check("disjoint", vec{"a": 1, "c": 3}, vec{"b": 2, "d": 4})
	check("identical", vec{"a": 1.5, "b": 2.5, "c": 0}, vec{"a": 1.5, "b": 2.5, "c": 0})
	check("nested", vec{"b": 2}, vec{"a": 1, "b": 2, "c": 3})

	rng := rand.New(rand.NewPCG(3, 9))
	random := func() vec {
		v := vec{}
		for n := rng.IntN(60); n > 0; n-- {
			v[fmt.Sprintf("prop/t%03d", rng.IntN(200))] = rng.Float64() * 10
		}
		return v
	}
	for i := 0; i < 500; i++ {
		check("random", random(), random())
	}

	profs := generatedProfiles(t, workload.Config{Seed: 5, Users: 60, Products: 1200, Categories: 16})
	for _, a := range profs {
		for _, b := range profs {
			want, got := mapDot(flatten(a), flatten(b)), gatherDot(a.Summary().Vec, b.Summary().Vec)
			if math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Fatalf("%s·%s: gather dot %v, map dot %v", a.UserID, b.UserID, got, want)
			}
		}
	}
}

func generatedProfiles(t *testing.T, cfg workload.Config) []*profile.Profile {
	t.Helper()
	u, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	profs, err := u.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	return profs
}

func generatedSummaries(t *testing.T, cfg workload.Config) []*profile.Summary {
	t.Helper()
	profs := generatedProfiles(t, cfg)
	sums := make([]*profile.Summary, len(profs))
	for i, p := range profs {
		sums[i] = p.Summary()
	}
	return sums
}

// TestCompactGatherMatchesMergeJoin: the gather and the merge-join give the
// same bits, not merely close values, so replacing one by the other moves no
// score, ranking or digest.
func TestCompactGatherMatchesMergeJoin(t *testing.T) {
	checkGather(t, "empty/empty", compactOf(vec{}), compactOf(vec{}))
	checkGather(t, "empty/nil", compactOf(vec{}), new(profile.Compact))
	checkGather(t, "nil/full", new(profile.Compact), compactOf(vec{"a": 1, "b": 2}))
	checkGather(t, "disjoint", compactOf(vec{"a": 1, "c": 3}), compactOf(vec{"b": 2, "d": 4}))
	checkGather(t, "identical", compactOf(vec{"a": 0.1, "b": 0.2, "c": 0}), compactOf(vec{"a": 0.1, "b": 0.2, "c": 0}))
	checkGather(t, "nested", compactOf(vec{"b": 0.3}), compactOf(vec{"a": 0.7, "b": 0.1, "c": 3}))

	// "a/b"+"c" and "a"+"b/c" flatten to one key, which the summary keeps
	// once, at the heavier weight.
	colliding := profile.NewProfile("x")
	colliding.Categories["a/b"] = &profile.Category{Name: "a/b", Terms: map[string]float64{"c": 1, "d": 0.25}}
	colliding.Categories["a"] = &profile.Category{Name: "a", Terms: map[string]float64{}, Subs: map[string]*profile.SubCategory{
		"b": {Name: "b", Terms: map[string]float64{"c": 3}},
	}}
	checkGather(t, "colliding keys", colliding.Summary().Vec, compactOf(vec{"a/b/c": 0.3, "a/b/d": 1.7, "e": 2}))

	// A candidate can hold terms interned after the target was scattered;
	// their ids lie past the table, and the gather stops at the first.
	target := compactOf(vec{"gather/early1": 0.4, "gather/early2": 1.1})
	dense := target.Scatter(nil)
	late := compactOf(vec{"gather/early2": 0.9, "gather/late1": 5, "gather/late2": 7})
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
		dense = a.Vec.Scatter(dense)
		for _, b := range sums {
			want, got := mergeJoinDot(a.Vec, b.Vec), b.Vec.Gather(dense)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s·%s: gather %.17g, merge-join %.17g", a.UserID, b.UserID, got, want)
			}
		}
		a.Vec.Unscatter(dense)
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
		a, b := vec{}, vec{}
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
		compactOf(vec{keys[i]: 1}) // intern in this order
	}
	a, b := vec{}, vec{}
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
		v := vec{}
		for _, k := range keys {
			if rng.IntN(2) == 0 {
				v[k] = 0.1 + rng.Float64()
			}
		}
		c := compactOf(v)
		cands[i] = Candidate{UserID: fmt.Sprintf("c%02d", i), Vec: c, Ty: 1, Norm: c.Norm()}
	}
	seq := func(yield func(Candidate) bool) {
		for _, c := range cands {
			if !yield(c) {
				return
			}
		}
	}
	ac, bc := compactOf(a), compactOf(b)
	for round, tc := range []*profile.Compact{ac, bc, ac, bc, ac} {
		got, err := TopKStream("self", tc, 1, 1, seq, -1)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]float64{}
		for _, c := range cands {
			if dot := mergeJoinDot(tc, c.Vec); dot > 0 {
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
	x := compactOf(vec{"x": 1})
	yields := 0
	seq := func(yield func(Candidate) bool) {
		for i := 0; i < 100; i++ {
			yields++
			if !yield(Candidate{UserID: fmt.Sprint(i), Vec: x, Ty: 1, Norm: 1}) {
				return
			}
		}
	}
	for _, target := range []vec{nil, {}, {"x": 0}} {
		got, err := TopKStream("self", compactOf(target), 0, 0.5, seq, 10)
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

// TestTopKStreamMatchesMergeJoin: TopKStream over summaries equals, bit for
// bit, the oracle that scores every candidate by the merge-join, gates,
// drops non-positive scores and sorts by score then UserID; and its scores
// repeat bit for bit across independently computed summaries of equal
// content.
func TestTopKStreamMatchesMergeJoin(t *testing.T) {
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
	const tol, k = 0.5, 10
	rank := func(sums []*profile.Summary, target *profile.Summary, cat string) []Neighbor {
		seq := func(yield func(Candidate) bool) {
			for _, s := range sums {
				if !yield(Candidate{UserID: s.UserID, Vec: s.Vec, Ty: s.Prefs[cat], Norm: s.Norm}) {
					return
				}
			}
		}
		got, err := TopKStream(target.UserID, target.Vec, target.Prefs[cat], tol, seq, k)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	oracle := func(sums []*profile.Summary, target *profile.Summary, cat string) []Neighbor {
		var out []Neighbor
		tx := target.Prefs[cat]
		for _, s := range sums {
			ty := s.Prefs[cat]
			if s.UserID == target.UserID || GateDiscards(tx, ty, tol) {
				continue
			}
			if dot := mergeJoinDot(target.Vec, s.Vec); dot > 0 {
				score := dot / (target.Norm * s.Norm)
				out = append(out, Neighbor{UserID: s.UserID, Score: score, Raw: score, Tx: tx, Ty: ty})
			}
		}
		slices.SortFunc(out, func(a, b Neighbor) int {
			if c := cmp.Compare(b.Score, a.Score); c != 0 {
				return c
			}
			return strings.Compare(a.UserID, b.UserID)
		})
		return out[:min(k, len(out))]
	}
	first, second := build(), build()
	scored := 0
	for i, target := range first[:40] {
		for cat := range target.Prefs {
			got, want := rank(first, target, cat), oracle(first, target, cat)
			if !slices.Equal(got, want) {
				t.Fatalf("%s/%s:\nTopKStream  %+v\nmerge-join  %+v", target.UserID, cat, got, want)
			}
			// Score only: Tx and Ty are the summaries' preference sums, which
			// are not part of the reproducibility contract.
			score := func(n Neighbor) Neighbor { return Neighbor{UserID: n.UserID, Score: n.Score} }
			again := rank(second, second[i], cat)
			if !slices.EqualFunc(got, again, func(a, b Neighbor) bool { return score(a) == score(b) }) {
				t.Fatalf("%s/%s: scores differ between two summaries of the same content:\n%+v\n%+v", target.UserID, cat, got, again)
			}
			scored += len(got)
		}
	}
	if scored == 0 {
		t.Fatal("no neighbour was scored; the test compares nothing")
	}
}

// TestTopKReachingStopsOnlyWhenReachMisses: TopKReaching answers exactly
// TopKStream's list whenever it does not give up, and gives up only when
// no consumer of reach is in that list, over random reach sets of a random
// community, ties in score included (every fifth candidate repeats an
// earlier vector). The reach sets include the case the stop must not fire
// on: the best of reach is the heap's worst when the heap fills.
func TestTopKReachingStopsOnlyWhenReachMisses(t *testing.T) {
	target, cands := allocCommunity(200)
	for i := 5; i < len(cands); i += 5 {
		cands[i].Vec, cands[i].Norm = cands[i-5].Vec, cands[i-5].Norm
	}
	rng := rand.New(rand.NewPCG(49, 49))
	gaveUp, whole := 0, 0
	for _, k := range []int{1, 3, 10} {
		full, err := TopKStream("self", target, 1, 0.5, slices.Values(cands), k)
		if err != nil {
			t.Fatal(err)
		}
		for trial := range 300 {
			var reach []Candidate
			switch trial % 3 {
			case 0: // a few at random
				for range 1 + rng.IntN(4) {
					reach = append(reach, cands[rng.IntN(len(cands))])
				}
			case 1: // the k-th of the answer, and worse ones
				reach = append(reach, cands[slices.IndexFunc(cands, func(c Candidate) bool { return c.UserID == full[k-1].UserID })])
				reach = append(reach, cands[rng.IntN(len(cands))])
			default: // none who scores
			}
			got, ok, err := TopKReaching("self", target, 1, 0.5, slices.Values(reach), slices.Values(cands), k)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				whole++
				if !slices.Equal(got, full) {
					t.Fatalf("k=%d reach %d: answered %v, TopKStream %v", k, len(reach), got, full)
				}
				continue
			}
			gaveUp++
			if got != nil {
				t.Fatalf("k=%d: gave up with an answer %v", k, got)
			}
			for _, nb := range full {
				if slices.ContainsFunc(reach, func(c Candidate) bool { return c.UserID == nb.UserID }) {
					t.Fatalf("k=%d: gave up, but %s of reach is in the top k %v", k, nb.UserID, full)
				}
			}
		}
	}
	if gaveUp == 0 || whole == 0 {
		t.Fatalf("%d searches gave up and %d answered: both sides need a case", gaveUp, whole)
	}
}
