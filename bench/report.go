package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
)

// benchmarkFile is the contract at the root of the repository: it names
// every workload and metric, with units and regression bounds, and this
// program emits exactly what it names. The program runs from the bench
// directory, one level below it.
const benchmarkFile = "../BENCHMARK.json"

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type catalogue struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`

	byName map[string]metricSpec
}

func loadCatalogue() (*catalogue, error) {
	data, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return nil, err
	}
	var c catalogue
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	c.byName = make(map[string]metricSpec)
	for _, m := range slices.Concat(c.EndToEnd, c.PerLayer) {
		c.byName[m.Name] = m
	}
	return &c, nil
}

// value is one reported number. Samples is how many observations stand
// behind a timing; it stays out of the contract line, which allows a
// metric exactly a value and a unit.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report is what one run of one workload produced.
type report struct {
	Workload  string           `json:"workload"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Checks    []check          `json:"checks"`
	// Attribution is, per ladder, how far the sum of its rungs' median
	// self times lies from the median of its root, as a share of the root.
	Attribution map[string]float64 `json:"attribution,omitempty"`

	cat *catalogue
}

func newReport(cat *catalogue, workload string) *report {
	return &report{Workload: workload, Metrics: make(map[string]value), cat: cat}
}

// set records a metric under the unit the catalogue gives it. A name the
// catalogue does not know is a bug in this program.
func (r *report) set(name string, v float64, samples int) {
	spec, ok := r.cat.byName[name]
	if !ok {
		panic("bench: metric " + name + " is not in " + benchmarkFile)
	}
	r.Metrics[name] = value{Value: v, Unit: spec.Unit, Samples: samples}
}

// setTime records the q-quantile of ns-valued samples in the metric's own
// time unit.
func (r *report) setTime(name string, samples []int64, q float64) {
	r.set(name, quantile(samples, q)/unitNs(r.cat.byName[name].Unit), len(samples))
}

func unitNs(unit string) float64 {
	switch unit {
	case "s":
		return 1e9
	case "ms":
		return 1e6
	case "us":
		return 1e3
	}
	return 1
}

// attribute records a traced ladder's attribution gap.
func (r *report) attribute(ladder string, gap float64) {
	if r.Attribution == nil {
		r.Attribution = make(map[string]float64)
	}
	r.Attribution[ladder] = gap
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// endToEnd records what the timed phases of an untraced run measured:
// capacity from the closed loop and the two roles' latencies.
func (r *report) endToEnd(closed *phase, primary, secondary []int64) {
	r.set("throughput_ops_s", closed.throughput(), int(closed.attempted))
	r.setTime("loadgen.ref_kernel_us", closed.kernel, 0.5)
	r.setTime("primary_p50_ms", primary, 0.5)
	r.setTime("primary_p95_ms", primary, 0.95)
	r.setTime("secondary_p50_ms", secondary, 0.5)
}

// count adds a phase's ops to the run's attempted/failed totals.
func (r *report) count(p *phase) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	if p.firstErr != nil {
		r.check("ops", false, "first failure: %v", p.firstErr)
	}
}

// fill copies from o every metric r does not have yet.
func (r *report) fill(o *report) {
	for name, v := range o.Metrics {
		if _, ok := r.Metrics[name]; !ok {
			r.Metrics[name] = v
		}
	}
}

// finish settles Correct: every check passed and no op failed.
func (r *report) finish() {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	for _, c := range r.Checks {
		r.Correct = r.Correct && c.OK
	}
}

// contractLine is the one JSON object the benchmark contract asks for on
// the last line of standard output.
func (r *report) contractLine(want []metricSpec) (string, error) {
	type bare struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]bare, len(want))
	for _, m := range want {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return "", fmt.Errorf("bench: workload %s did not measure %s", r.Workload, m.Name)
		}
		metrics[m.Name] = bare{v.Value, v.Unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool            `json:"correct"`
		Attempted int64           `json:"attempted"`
		Failed    int64           `json:"failed"`
		Metrics   map[string]bare `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(out), err
}

// print lists every metric by name with its unit and sample count, then
// the checks, for a person reading the terminal.
func (r *report) print(w *os.File) {
	fmt.Fprintf(w, "== %s: attempted %d, failed %d\n", r.Workload, r.Attempted, r.Failed)
	for _, name := range slices.Sorted(maps.Keys(r.Metrics)) {
		v := r.Metrics[name]
		n := ""
		if v.Samples > 0 {
			n = fmt.Sprintf("  (n=%d)", v.Samples)
		}
		fmt.Fprintf(w, "  %-40s %14.4f %s%s\n", name, v.Value, v.Unit, n)
	}
	for ladder, gap := range r.Attribution {
		fmt.Fprintf(w, "  attribution %-22s rung self times sum to %+.1f %% of the root's median\n", ladder, 100*gap)
	}
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "  check %-28s %s  %s\n", c.Name, verdict, c.Detail)
	}
}
