// recbench prints the experiment tables to stdout (-run), and writes the
// scenario trajectory files BENCH_<scenario>.json.
//
// Usage:
//
//	recbench -run=all                      # every experiment, full size
//	recbench -run=C5 -quick                # one experiment, small fixtures
//	recbench -scenario list                # list the shipped scenarios
//	recbench -scenario flash-sale          # full-size open-loop run, 2 servers
//	recbench -scenario flash-sale -quick   # CI-sized smoke reduction
//	recbench -scenario my.json -rate 500 -duration 10s -servers 3
//
// A scenario run replays the scenario's op mix open-loop (arrivals fixed by
// the constant rate, never by completions) against an in-process replica
// set of -servers N buyer servers and writes the BENCH_<scenario>.json
// latency/throughput document.
//
// Experiments: F4.4 (learning rate), F4.5 (discard gate), C2 (mobile agent
// vs RPC network cost), C4 (sparsity and cold start), C5 (technique
// comparison with ablations).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"agentrec/internal/experiments"
	"agentrec/internal/loadgen"
)

func main() {
	run := flag.String("run", "all", "experiment id or 'all' ("+strings.Join(experiments.Names(), ", ")+")")
	quick := flag.Bool("quick", false, "small fixtures (fast, noisier numbers); with -scenario, the CI smoke reduction")
	out := flag.String("out", "", "output file for -scenario (default BENCH_<scenario>.json)")
	scenario := flag.String("scenario", "", "open-loop load scenario: a built-in name, a JSON file, or 'list' ("+strings.Join(loadgen.Scenarios(), ", ")+")")
	rate := flag.Float64("rate", 0, "override the scenario's arrival rate, ops/sec (must be > 0 when set)")
	duration := flag.Duration("duration", 0, "override the scenario's load window (must be > 0 when set)")
	servers := flag.Int("servers", 2, "in-process buyer server count (>= 1)")
	users := flag.Int("users", 0, "override the scenario's consumer count (must be > 0 when set)")
	workers := flag.Int("workers", 0, "driver worker count (default 16)")
	stateDir := flag.String("state-dir", "", "durable state root for the scenario's servers, one directory each (default: memory-only)")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	// Out-of-range flags are usage errors, never silent clamps: a clamped
	// -rate=0 would commit a trajectory measured at a rate nobody asked for.
	if set["rate"] && *rate <= 0 {
		usageErr("-rate must be positive, got %g", *rate)
	}
	if set["duration"] && *duration <= 0 {
		usageErr("-duration must be positive, got %v", *duration)
	}
	if set["users"] && *users <= 0 {
		usageErr("-users must be positive, got %d", *users)
	}
	if *servers < 1 {
		usageErr("-servers must be >= 1, got %d", *servers)
	}
	if *workers < 0 {
		usageErr("-workers must be non-negative, got %d", *workers)
	}

	switch {
	case *scenario != "":
		if err := runScenario(scenarioOptions{
			name: *scenario, rate: *rate, duration: *duration, servers: *servers,
			users: *users, workers: *workers, stateDir: *stateDir, out: *out, quick: *quick,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "recbench:", err)
			os.Exit(1)
		}
	default:
		size := experiments.Full
		if *quick {
			size = experiments.Quick
		}
		if err := experiments.Run(os.Stdout, *run, size); err != nil {
			fmt.Fprintln(os.Stderr, "recbench:", err)
			os.Exit(1)
		}
	}
}

// usageErr reports a flag mistake and exits with the usage status.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "recbench: %s\n", fmt.Sprintf(format, args...))
	flag.Usage()
	os.Exit(2)
}

type scenarioOptions struct {
	name     string
	rate     float64
	duration time.Duration
	servers  int
	users    int
	workers  int
	stateDir string
	out      string
	quick    bool
}

func runScenario(opt scenarioOptions) error {
	if opt.name == "list" {
		for _, name := range loadgen.Scenarios() {
			s, _ := loadgen.Lookup(name)
			fmt.Printf("%-14s %s\n", name, s.Description)
		}
		return nil
	}
	s, ok := loadgen.Lookup(opt.name)
	if !ok {
		if !strings.ContainsAny(opt.name, "./") {
			return fmt.Errorf("unknown scenario %q (try -scenario list, or pass a JSON file)", opt.name)
		}
		var err error
		if s, err = loadgen.LoadScenario(opt.name); err != nil {
			return err
		}
	}
	if opt.quick {
		s = s.Smoke()
	}
	if opt.rate > 0 {
		s.RateOpsS = opt.rate
	}
	if opt.duration > 0 {
		s.DurationS = opt.duration.Seconds()
	}
	if opt.users > 0 {
		s.Users = opt.users
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := loadgen.RunScenario(ctx, s, loadgen.RunOptions{
		Servers:  opt.servers,
		StateDir: opt.stateDir,
		Workers:  opt.workers,
		Out:      os.Stdout,
	})
	if err != nil {
		return err
	}
	if err := res.Check(); err != nil {
		return err
	}
	dest := opt.out
	if dest == "" {
		dest = "BENCH_" + res.Scenario + ".json"
	}
	if err := loadgen.WriteResult(dest, res); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", dest)
	return nil
}
