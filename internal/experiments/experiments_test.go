package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// Each experiment must run at Quick size and emit a well-formed table. The
// shape assertions here are the machine-checked versions of the
// expectations each experiment's doc comment states.

func runQuick(t *testing.T, name string) string {
	t.Helper()
	var sb strings.Builder
	if err := Run(&sb, name, Quick); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "##") {
		t.Fatalf("no table rendered:\n%s", out)
	}
	return out
}

func parseTable(t *testing.T, out, title string) [][]string {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var rows [][]string
	in := false
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, "## "):
			in = strings.Contains(line, title)
		case in && strings.HasPrefix(line, "-"):
			// separator
		case in && line != "":
			rows = append(rows, strings.Fields(line))
		case in && line == "":
			in = false
		}
	}
	if len(rows) < 2 {
		t.Fatalf("table %q not found or empty in:\n%s", title, out)
	}
	return rows[1:] // drop header
}

func cell(t *testing.T, rows [][]string, row, col int) float64 {
	t.Helper()
	var v float64
	if _, err := parseFloat(rows[row][col], &v); err != nil {
		t.Fatalf("cell [%d][%d] = %q not numeric", row, col, rows[row][col])
	}
	return v
}

func parseFloat(s string, v *float64) (int, error) {
	return fmt.Sscanf(s, "%g", v)
}

func TestF44Shape(t *testing.T) {
	out := runQuick(t, "F4.4")
	rows := parseTable(t, out, "F4.4")
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Larger α must adapt at least as fast (obs_to_switch non-increasing)
	// and be at least as volatile (one_shot_share non-decreasing).
	for i := 1; i < len(rows); i++ {
		if cell(t, rows, i, 1) > cell(t, rows, i-1, 1) {
			t.Errorf("obs_to_switch increased with α: rows %d->%d", i-1, i)
		}
		if cell(t, rows, i, 3) < cell(t, rows, i-1, 3)-1e-9 {
			t.Errorf("one_shot_share decreased with α: rows %d->%d", i-1, i)
		}
	}
}

func TestF45Shape(t *testing.T) {
	out := runQuick(t, "F4.5")
	rows := parseTable(t, out, "F4.5")
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// A wider gate keeps at least as many neighbours.
	for i := 1; i < len(rows); i++ {
		if cell(t, rows, i, 3) < cell(t, rows, i-1, 3)-1e-9 {
			t.Errorf("mean_neighbors shrank as tolerance widened")
		}
	}
	// CF must do real work at some tolerance.
	best := 0.0
	for i := range rows {
		if p := cell(t, rows, i, 1); p > best {
			best = p
		}
	}
	if best == 0 {
		t.Error("CF precision zero at every tolerance")
	}
}

func TestC2Shape(t *testing.T) {
	out := runQuick(t, "C2")
	rows := parseTable(t, out, "C2")
	for i := range rows {
		mbaMsgs, rpcMsgs := cell(t, rows, i, 2), cell(t, rows, i, 3)
		// The mobile agent must cross the network far less often than the
		// conventional client: M+1 hops vs per-offer round trips.
		if mbaMsgs >= rpcMsgs {
			t.Errorf("row %d: MBA msgs %v !< RPC msgs %v", i, mbaMsgs, rpcMsgs)
		}
	}
	// Under real latency the fewer-messages advantage becomes wall-clock.
	last := len(rows) - 1
	if cell(t, rows, last, 4) >= cell(t, rows, last, 5) {
		t.Errorf("at highest latency MBA (%vms) not faster than RPC (%vms)",
			cell(t, rows, last, 4), cell(t, rows, last, 5))
	}
}

func TestC4Shape(t *testing.T) {
	out := runQuick(t, "C4")
	rows := parseTable(t, out, "C4")
	if len(rows) < 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	_ = first
	_ = last
	// Denser behaviour must not hurt hybrid quality.
	if cell(t, rows, len(rows)-1, 4) < cell(t, rows, 0, 4)-0.05 {
		t.Errorf("hybrid precision fell with density: %v -> %v",
			cell(t, rows, 0, 4), cell(t, rows, len(rows)-1, 4))
	}
	// At the densest setting, personalized beats the popularity baseline.
	lastRow := len(rows) - 1
	if cell(t, rows, lastRow, 4) <= cell(t, rows, lastRow, 5) {
		t.Errorf("hybrid (%v) not above topseller (%v) at max density",
			cell(t, rows, lastRow, 4), cell(t, rows, lastRow, 5))
	}
}

func TestC5Shape(t *testing.T) {
	out := runQuick(t, "C5")
	rows := parseTable(t, out, "C5 —")
	if len(rows) != 4 {
		t.Fatalf("strategy rows = %d", len(rows))
	}
	byName := map[string][]string{}
	for _, r := range rows {
		byName[r[0]] = r
	}
	prec := func(name string) float64 {
		var v float64
		parseFloat(byName[name][1], &v)
		return v
	}
	// The paper's §2.3 ordering: personalization beats popularity.
	if prec("hybrid") <= prec("topseller") {
		t.Errorf("hybrid %v !> topseller %v", prec("hybrid"), prec("topseller"))
	}
	if prec("if") <= prec("topseller") {
		t.Errorf("if %v !> topseller %v", prec("if"), prec("topseller"))
	}
	// Ablation tables present.
	parseTable(t, out, "C5a")
	parseTable(t, out, "C5b")
}

func TestRunUnknown(t *testing.T) {
	var sb strings.Builder
	if err := Run(&sb, "F9.9", Quick); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("all experiments at quick size still take a few seconds")
	}
	var sb strings.Builder
	if err := Run(&sb, "all", Quick); err != nil {
		t.Fatal(err)
	}
	for _, id := range Names() {
		if !strings.Contains(sb.String(), id) {
			t.Errorf("output missing experiment %s", id)
		}
	}
}
