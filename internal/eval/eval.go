// Package eval provides the measurement half of the experiment harness:
// standard top-N recommendation metrics (precision, recall, F1, coverage)
// computed against the workload generator's held-out relevance sets, plus a
// fixed-width table renderer in which `recbench -run` prints every
// experiment's table to stdout, byte-comparably from run to run.
package eval

import (
	"fmt"
	"io"
	"strings"
)

// Metrics aggregates top-N quality over a set of users.
type Metrics struct {
	Users     int     // users evaluated
	Precision float64 // mean precision@N
	Recall    float64 // mean recall@N
	F1        float64 // harmonic mean of the means
	Coverage  float64 // fraction of evaluated users who got >= 1 recommendation
	Distinct  int     // distinct products recommended across users (catalog coverage)
}

// PrecisionRecall computes precision@N and recall@N for one user:
// recommended is the ranked list (already truncated to N), relevant the
// held-out ground truth.
func PrecisionRecall(recommended, relevant []string) (precision, recall float64) {
	if len(recommended) == 0 || len(relevant) == 0 {
		return 0, 0
	}
	rel := make(map[string]bool, len(relevant))
	for _, id := range relevant {
		rel[id] = true
	}
	hits := 0
	for _, id := range recommended {
		if rel[id] {
			hits++
		}
	}
	return float64(hits) / float64(len(recommended)), float64(hits) / float64(len(relevant))
}

// F1 returns the harmonic mean of precision and recall (0 when both are 0).
func F1(precision, recall float64) float64 {
	if precision+recall == 0 {
		return 0
	}
	return 2 * precision * recall / (precision + recall)
}

// Aggregate folds per-user results into Metrics. recommendations and
// relevants are parallel slices, one entry per user.
func Aggregate(recommendations, relevants [][]string) Metrics {
	m := Metrics{Users: len(recommendations)}
	if m.Users == 0 {
		return m
	}
	distinct := make(map[string]bool)
	covered := 0
	var sumP, sumR float64
	for i := range recommendations {
		p, r := PrecisionRecall(recommendations[i], relevants[i])
		sumP += p
		sumR += r
		if len(recommendations[i]) > 0 {
			covered++
		}
		for _, id := range recommendations[i] {
			distinct[id] = true
		}
	}
	m.Precision = sumP / float64(m.Users)
	m.Recall = sumR / float64(m.Users)
	m.F1 = F1(m.Precision, m.Recall)
	m.Coverage = float64(covered) / float64(m.Users)
	m.Distinct = len(distinct)
	return m
}

// Table renders experiment rows with aligned columns, the output format of
// `recbench -run`.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}
