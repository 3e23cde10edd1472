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

// TestCompactDotMatchesMapDot is the kernel's property test: the merge-join
// over interned ids gives the map-based Dot, up to summation order, on
// random vectors, on the benchmark's generated profiles, and on the edges.
func TestCompactDotMatchesMapDot(t *testing.T) {
	check := func(name string, a, b Vec) {
		t.Helper()
		want := Dot(a, b)
		for _, got := range []float64{compactOf(a).Dot(compactOf(b)), compactOf(b).Dot(compactOf(a))} {
			if math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Fatalf("%s: merge-join dot %v, map dot %v", name, got, want)
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

	u, err := workload.Generate(workload.Config{Seed: 5, Users: 60, Products: 1200, Categories: 16})
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
	for _, a := range sums {
		for _, b := range sums {
			want, got := Dot(a.Vec, b.Vec), a.Compact.Dot(b.Compact)
			if math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Fatalf("%s·%s: merge-join dot %v, map dot %v", a.UserID, b.UserID, got, want)
			}
		}
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
