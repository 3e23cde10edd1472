package eval

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestPrecisionRecall(t *testing.T) {
	tests := []struct {
		name         string
		rec, rel     []string
		wantP, wantR float64
	}{
		{"perfect", []string{"a", "b"}, []string{"a", "b"}, 1, 1},
		{"half precision", []string{"a", "x"}, []string{"a", "b"}, 0.5, 0.5},
		{"no overlap", []string{"x", "y"}, []string{"a"}, 0, 0},
		{"empty rec", nil, []string{"a"}, 0, 0},
		{"empty rel", []string{"a"}, nil, 0, 0},
		{"subset", []string{"a"}, []string{"a", "b", "c", "d"}, 1, 0.25},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p, r := PrecisionRecall(tt.rec, tt.rel)
			if math.Abs(p-tt.wantP) > 1e-12 || math.Abs(r-tt.wantR) > 1e-12 {
				t.Errorf("P/R = %v/%v, want %v/%v", p, r, tt.wantP, tt.wantR)
			}
		})
	}
}

func TestF1(t *testing.T) {
	if F1(0, 0) != 0 {
		t.Error("F1(0,0) != 0")
	}
	if got := F1(1, 1); got != 1 {
		t.Errorf("F1(1,1) = %v", got)
	}
	if got := F1(0.5, 1); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("F1(0.5,1) = %v", got)
	}
}

func TestF1BoundsProperty(t *testing.T) {
	fn := func(p, r float64) bool {
		p, r = math.Abs(math.Mod(p, 1)), math.Abs(math.Mod(r, 1))
		f := F1(p, r)
		lo := math.Min(p, r)
		hi := math.Max(p, r)
		return f >= 0 && f <= hi+1e-12 && (f >= lo-1e-12 || f == 0 || lo == 0)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAggregate(t *testing.T) {
	recs := [][]string{
		{"a", "b"}, // P=1, R=1 vs {a,b}
		{"x", "y"}, // P=0, R=0 vs {a}
		{},         // uncovered
	}
	rels := [][]string{{"a", "b"}, {"a"}, {"a"}}
	m := Aggregate(recs, rels)
	if m.Users != 3 {
		t.Errorf("Users = %d", m.Users)
	}
	if math.Abs(m.Precision-1.0/3) > 1e-12 {
		t.Errorf("Precision = %v", m.Precision)
	}
	if math.Abs(m.Recall-1.0/3) > 1e-12 {
		t.Errorf("Recall = %v", m.Recall)
	}
	if math.Abs(m.Coverage-2.0/3) > 1e-12 {
		t.Errorf("Coverage = %v", m.Coverage)
	}
	if m.Distinct != 4 {
		t.Errorf("Distinct = %d, want 4 (a,b,x,y)", m.Distinct)
	}
}

func TestAggregateEmpty(t *testing.T) {
	m := Aggregate(nil, nil)
	if m.Users != 0 || m.Precision != 0 {
		t.Errorf("empty aggregate = %+v", m)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("C5 strategies", "strategy", "precision", "recall")
	tb.AddRow("cf", 0.25, 0.5)
	tb.AddRow("topseller", 0.05, 0.1)
	out := tb.String()
	if !strings.Contains(out, "## C5 strategies") {
		t.Errorf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "0.2500") {
		t.Errorf("missing formatted float:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
	// Columns aligned: header and rows share prefix widths.
	if !strings.HasPrefix(lines[1], "strategy ") {
		t.Errorf("header misaligned: %q", lines[1])
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("x")
	if strings.Contains(tb.String(), "##") {
		t.Error("title rendered for empty title")
	}
}
