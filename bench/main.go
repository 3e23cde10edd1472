// Command bench is the repository's one benchmark: four workloads over
// the agent-based recommendation platform, each set up, warmed, driven and
// checked from this one process, with every layer timed from outside
// through its exported functions. BENCHMARK.json at the repository root
// names what it measures; README.md in this directory says why.
//
// Run it from this directory:
//
//	go run .                          every workload, every end-to-end metric
//	go run . -trace 1                 the per-layer ladder, spans in out/
//	go run . -workload browse -seed 7 one workload, contract line last
//	go run . -compare a.json b.json   two result files against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloadFunc sets one workload up, drives it and fills the report.
type workloadFunc func(e *env, r *report) error

var workloads = map[string]workloadFunc{
	"browse":     runBrowse,
	"ingest":     runIngest,
	"replicated": runReplicated,
	"shop-tasks": runShopTasks,
}

// env is what a run fixes before any workload starts.
type env struct {
	seed    uint64
	seconds float64 // timed budget of one workload
	quick   bool    // 2 000 consumers and a tenth of the warm-up: the smoke test and the trace rigs
	trace   bool
	workers int    // closed-loop callers = open-loop issuers = HTTP connections: one, see README
	setups  int    // times the world is built; setup_s is the median
	tmp     string // the run's scratch root; every state directory is made under it
	spans   string // where the traced run writes its spans; empty for a rig
}

func (e *env) dur(share float64) time.Duration {
	return time.Duration(share * e.seconds * float64(time.Second))
}

// users picks a community size: full for a measured run, 2 000 when quick.
func (e *env) users(full int) int {
	if e.quick {
		return 2000
	}
	return full
}

// warmUp runs the untimed warm-up: ops 0 .. n-1, a tenth of them when
// quick, and then reads the live heap. A count and not a time, so that
// every run has done the same work when its heap is read and its timed
// phases start: state that grows with every op — refreshed profiles,
// journal tails, sales logs — would otherwise make heap_live_mb a measure
// of how fast the box was. settle, if not nil, lets background work the
// ops started come to rest first. It returns the index of the next op.
func (e *env) warmUp(r *report, n uint64, do doFunc, heapBefore uint64, settle func()) uint64 {
	if e.quick {
		n /= 10
	}
	closedOps(e.workers, n, 0, do)
	if settle != nil {
		settle()
	}
	if !e.trace {
		r.set("heap_live_mb", float64(liveHeap()-heapBefore)/(1<<20), 0)
	}
	return n
}

// setUp builds the world e.setups times, closing all but the last, and
// reports the median build time, at the reference speed, as setup_s. Input
// generation is not part of it: that is this program's work, not the
// platform's. inspect, if not nil, looks at each quiescent world off the
// clock.
func setUp[W io.Closer](e *env, r *report, build func() (W, error), inspect func(W) error) (W, error) {
	var (
		world W
		times []float64
	)
	for i := range e.setups {
		if i > 0 {
			if err := world.Close(); err != nil {
				return world, err
			}
		}
		clock := watchBox()
		t0 := time.Now()
		w, err := build()
		took := time.Since(t0).Seconds()
		scale := clock.stop()
		if err != nil {
			return world, err
		}
		times = append(times, took*scale)
		world = w
		if inspect != nil {
			if err := inspect(w); err != nil {
				return world, err
			}
		}
	}
	if !e.trace {
		r.set("setup_s", medianFloat(times), len(times))
	}
	return world, nil
}

// runtimeCounters brackets a phase with the allocator's and collector's
// own counts.
func runtimeCounters(r *report, run func() *phase) *phase {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := run()
	runtime.ReadMemStats(&after)
	ops := float64(max(p.attempted, 1))
	r.set("runtime.allocs_per_op", float64(after.Mallocs-before.Mallocs)/ops, int(p.attempted))
	r.set("runtime.alloc_bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/ops, int(p.attempted))
	r.set("runtime.gc_pause_total_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/nsPerMs, int(after.NumGC-before.NumGC))
	return p
}

// layerPhases is the traced run's common spine: a quarter of the budget
// untraced, for the runtime counters and the throughput tracing is
// compared against, then half of it replaying every op down its ladder.
// A short run on a slow box may not reach every rare kind of op in that
// time, so the replay goes on, one caller, until rarest names the spans
// that only those ops record and each has been recorded three times.
func (e *env) layerPhases(r *report, tr *tracer, base uint64, primary class, plain, ladder doFunc, rarest ...string) uint64 {
	untraced := runtimeCounters(r, func() *phase { return closedLoop(e.workers, e.dur(0.25), base, plain) })
	r.count(untraced)
	r.setTime("primary_p95_ms", untraced.lat[primary], 0.95)
	r.setTime("loadgen.ref_kernel_us", untraced.kernel, 0.5)
	base += uint64(untraced.attempted)
	traced := closedLoop(e.workers, e.dur(0.5), base, ladder)
	r.count(traced)
	r.set("loadgen.trace_overhead_share", 1-traced.throughput()/untraced.throughput(), int(traced.attempted))
	base += uint64(traced.attempted)
	for limit := base + 20000; !tr.seen(3, rarest...) && base < limit; base++ {
		r.count(closedOps(1, 1, base, ladder))
	}
	tr.emit(r)
	return base
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	quick    bool
	trace    bool
}

// runOne runs one workload. With rigs, a traced run then runs the other
// three at quick scale, so that a layer the workload never touches still
// has a measured number behind its metric; the workload's own numbers win.
func runOne(cat *catalogue, opt options, rigs bool, tmp string) (*report, error) {
	e := &env{
		seed: opt.seed, seconds: opt.seconds, quick: opt.quick, trace: opt.trace,
		workers: 1, setups: 3, tmp: tmp,
	}
	if opt.trace {
		e.setups = 1
		e.spans = filepath.Join("out", "trace_"+opt.workload+".jsonl")
	}
	r := newReport(cat, opt.workload)
	if err := workloads[opt.workload](e, r); err != nil {
		return nil, fmt.Errorf("%s: %w", opt.workload, err)
	}
	if opt.trace && rigs {
		rig := *e
		rig.quick, rig.seconds, rig.spans = true, min(e.seconds, 4), ""
		for _, w := range cat.Workloads {
			if w.Name == opt.workload {
				continue
			}
			rr := newReport(cat, w.Name)
			if err := workloads[w.Name](&rig, rr); err != nil {
				return nil, fmt.Errorf("%s rig: %w", w.Name, err)
			}
			r.fill(rr)
		}
	}
	r.finish()
	return r, nil
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Seed       uint64             `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Quick      bool               `json:"quick"`
	NumCPU     int                `json:"nproc"`
	GoMaxProcs int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Workloads  map[string]*report `json:"workloads"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		opt     options
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and span files; 0 = end-to-end metrics")
		out     = flag.String("out", filepath.Join("out", "result.json"), "result file")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.StringVar(&opt.workload, "workload", "", "run one workload and end with the contract line (default: all four)")
	flag.Uint64Var(&opt.seed, "seed", 1, "input seed; the platform sees only the generated inputs")
	flag.Float64Var(&opt.seconds, "seconds", 45, "timed seconds per workload")
	flag.BoolVar(&opt.quick, "quick", false, "2 000 consumers and 3 s per workload")
	flag.Parse()
	opt.trace = *trace != 0

	cat, err := loadCatalogue()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(cat, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if opt.quick {
		opt.seconds = 3
	}
	names := []string{opt.workload}
	if opt.workload == "" {
		names = names[:0]
		for _, w := range cat.Workloads {
			names = append(names, w.Name)
		}
	} else if _, ok := workloads[opt.workload]; !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", opt.workload)
		return 2
	}

	if err := os.MkdirAll("out", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	tmp, err := os.MkdirTemp("out", "state-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(tmp)

	res := resultFile{
		Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace, Quick: opt.quick,
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Workloads: make(map[string]*report),
	}
	fmt.Fprintf(os.Stderr, "bench: seed %d, %.0f s per workload, nproc %d, GOMAXPROCS %d, %s\n",
		res.Seed, res.Seconds, res.NumCPU, res.GoMaxProcs, res.GoVersion)
	ok := true
	var last *report
	for _, name := range names {
		o := opt
		o.workload = name
		r, err := runOne(cat, o, opt.workload != "", tmp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		r.print(os.Stderr)
		res.Workloads[name] = r
		ok = ok && r.Correct
		last = r
	}
	if err := writeJSON(*out, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if opt.workload != "" {
		want := cat.EndToEnd
		if opt.trace {
			want = cat.PerLayer
		}
		line, err := last.contractLine(want)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(line)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: a correctness check failed")
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res resultFile
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(res.Workloads) == 0 {
		return nil, errors.New(path + ": no workloads")
	}
	return &res, nil
}
