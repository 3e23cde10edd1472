package main

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
)

// worseBy is how much b is worse than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worseBy(spec metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / a
	if spec.Better == "higher" {
		d = -d
	}
	return d
}

// compareFiles prints, per workload and metric two result files share,
// both values, the relative change and the metric's bound, and returns 1
// when an end-to-end metric got worse by more than its bound or a
// workload's failed share rose, 2 when a file cannot be read.
func compareFiles(cat *catalogue, pathA, pathB string, w io.Writer) int {
	a, errA := readResult(pathA)
	b, errB := readResult(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	return compareResults(cat, a, b, w)
}

func compareResults(cat *catalogue, a, b *resultFile, w io.Writer) int {
	if a.Seed != b.Seed || a.Seconds != b.Seconds || a.Trace != b.Trace || a.Quick != b.Quick {
		fmt.Fprintf(w, "note: the runs differ in settings (seed %d/%d, seconds %g/%g, trace %v/%v, quick %v/%v)\n",
			a.Seed, b.Seed, a.Seconds, b.Seconds, a.Trace, b.Trace, a.Quick, b.Quick)
	}
	regressions := 0
	for _, name := range slices.Sorted(maps.Keys(a.Workloads)) {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if rb == nil {
			continue
		}
		fmt.Fprintf(w, "== %s\n", name)
		failA := float64(ra.Failed) / float64(max(ra.Attempted, 1))
		failB := float64(rb.Failed) / float64(max(rb.Attempted, 1))
		verdict := ""
		if failB > failA {
			verdict = "  REGRESSION: more ops failed"
			regressions++
		}
		fmt.Fprintf(w, "  %-40s %14.6f %14.6f%s\n", "fail_share", failA, failB, verdict)
		for _, spec := range slices.Concat(cat.EndToEnd, cat.PerLayer) {
			va, okA := ra.Metrics[spec.Name]
			vb, okB := rb.Metrics[spec.Name]
			if !okA || !okB {
				continue
			}
			d := worseBy(spec, va.Value, vb.Value)
			verdict := ""
			if spec.Bound > 0 {
				verdict = fmt.Sprintf("  bound %2.0f %%", 100*spec.Bound)
				if d > spec.Bound {
					verdict += "  REGRESSION"
					regressions++
				}
			}
			fmt.Fprintf(w, "  %-40s %14.4f %14.4f %-6s %+7.1f %% worse%s\n", spec.Name, va.Value, vb.Value, spec.Unit, 100*d, verdict)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d regression(s) beyond the bounds in %s\n", regressions, benchmarkFile)
		return 1
	}
	return 0
}
