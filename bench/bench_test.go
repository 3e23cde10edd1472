package main

import (
	"bytes"
	"math"
	"regexp"
	"slices"
	"strings"
	"testing"

	"agentrec/internal/workload"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func mustCatalogue(t *testing.T) *catalogue {
	t.Helper()
	cat, err := loadCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestBenchmarkFileMeetsContract holds BENCHMARK.json to the limits the
// driver refuses a file for.
func TestBenchmarkFileMeetsContract(t *testing.T) {
	cat := mustCatalogue(t)
	if n := len(cat.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(cat.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(cat.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if cat.RunSeconds < 1 || cat.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", cat.RunSeconds)
	}
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	var got []string
	for _, w := range cat.Workloads {
		name(w.Name)
		got = append(got, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	want := make([]string, 0, len(workloads))
	for w := range workloads {
		want = append(want, w)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json names workloads %v, the program has %v", got, want)
	}
	setup := false
	for _, m := range cat.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g, want (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range cat.PerLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	for _, m := range slices.Concat(cat.EndToEnd, cat.PerLayer) {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
}

// TestOpAdapter: the adapter's reads have evidence in their category, its
// scans have none, and an op is a pure function of (seed, i).
func TestOpAdapter(t *testing.T) {
	e := &env{seed: 7, quick: true}
	in, err := browseInputs(e)
	if err != nil {
		t.Fatal(err)
	}
	again, err := browseInputs(e)
	if err != nil {
		t.Fatal(err)
	}
	var reads, readsWithEvidence, scans, scansWithEvidence int
	for i := uint64(0); i < 20000; i++ {
		op, c := in.op(i)
		op2, c2 := again.op(i)
		if c != c2 || op.Kind != op2.Kind || op.UserID != op2.UserID || op.Category != op2.Category || op.ProductID != op2.ProductID {
			t.Fatalf("op %d differs between two builds of seed 7: %+v / %+v", i, op, op2)
		}
		if op.Kind != workload.OpRecommend {
			continue
		}
		evidence := in.byUser[op.UserID].PreferenceValue(op.Category) > 0
		switch c {
		case classRead:
			reads++
			if evidence {
				readsWithEvidence++
			}
		case classAlt:
			scans++
			if evidence {
				scansWithEvidence++
			}
		}
	}
	if reads == 0 || scans == 0 {
		t.Fatalf("%d reads and %d scans in 20 000 ops", reads, scans)
	}
	if share := float64(readsWithEvidence) / float64(reads); share < 0.99 {
		t.Errorf("%.1f %% of reads have evidence in their category, want at least 99 %%", 100*share)
	}
	if scansWithEvidence != 0 {
		t.Errorf("%d of %d scans have evidence in their category, want none", scansWithEvidence, scans)
	}
	if share := float64(scans) / float64(reads+scans); math.Abs(share-0.1) > 0.02 {
		t.Errorf("scans are %.1f %% of recommend ops, want 10 %%", 100*share)
	}
}

// TestQuickSmoke runs all four workloads at quick scale, untraced and
// traced, and holds what they emit against BENCHMARK.json in both
// directions, and the two ladders to the attribution rule.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives four worlds")
	}
	cat := mustCatalogue(t)
	tmp := t.TempDir()
	layers := newReport(cat, "all")
	for _, w := range cat.Workloads {
		opt := options{workload: w.Name, seed: 1, seconds: 1.2, quick: true}
		r, err := runOne(cat, opt, false, tmp)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct {
			t.Errorf("%s: not correct: failed %d of %d, checks %+v", w.Name, r.Failed, r.Attempted, r.Checks)
		}
		if _, err := r.contractLine(cat.EndToEnd); err != nil {
			t.Error(err)
		}

		opt.trace = true
		r, err = runOne(cat, opt, false, tmp)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct {
			t.Errorf("%s traced: not correct: failed %d of %d, checks %+v", w.Name, r.Failed, r.Attempted, r.Checks)
		}
		for ladder, gap := range r.Attribution {
			if math.Abs(gap) > 0.15 {
				t.Errorf("%s: the %s ladder's self times sum to %+.1f %% of its root's median, want within 15 %%", w.Name, ladder, 100*gap)
			}
		}
		layers.fill(r)
	}
	if len(layers.Attribution) != 0 {
		t.Fatal("fill must not copy attribution")
	}
	// Every per-layer metric is measured by some workload, which is what
	// lets a traced run of one workload fill the rest from rigs.
	if _, err := layers.contractLine(cat.PerLayer); err != nil {
		t.Error(err)
	}
}

func TestCompare(t *testing.T) {
	cat := mustCatalogue(t)
	result := func(throughput float64, failed int64) *resultFile {
		r := newReport(cat, "browse")
		r.Attempted, r.Failed = 1000, failed
		r.set("throughput_ops_s", throughput, 1000)
		r.set("recommend.cf_us", 40, 10)
		return &resultFile{Seed: 1, Seconds: 15, Workloads: map[string]*report{"browse": r}}
	}
	bound := cat.byName["throughput_ops_s"].Bound
	for _, tc := range []struct {
		name string
		b    *resultFile
		want int
	}{
		{"same", result(100, 0), 0},
		{"better", result(150, 0), 0},
		{"within bound", result(100*(1-bound/2), 0), 0},
		{"beyond bound", result(100*(1-2*bound), 0), 1},
		{"more failures", result(100, 3), 1},
	} {
		var out bytes.Buffer
		if got := compareResults(cat, result(100, 0), tc.b, &out); got != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, got, tc.want, out.String())
		}
	}
}
