package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"agentrec/internal/ops"
	"agentrec/internal/platform"
	"agentrec/internal/workload"
)

// LatencySummary is one histogram's percentile digest, in milliseconds.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
}

func ms(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }

func summarize(h *Histogram) LatencySummary {
	return LatencySummary{
		Count:  h.Count(),
		MeanMs: h.Mean() / float64(time.Millisecond),
		P50Ms:  ms(h.Quantile(0.50)),
		P90Ms:  ms(h.Quantile(0.90)),
		P99Ms:  ms(h.Quantile(0.99)),
		P999Ms: ms(h.Quantile(0.999)),
		MaxMs:  ms(h.Max()),
	}
}

// MetricsDelta is the ops.Snapshot movement over the run: platform-level
// proof that the load actually exercised the subsystem the scenario claims
// (journal growth, compactions, replication backlog).
type MetricsDelta struct {
	UsersBefore        int     `json:"users_before"`
	UsersAfter         int     `json:"users_after"`
	JournalBytesBefore int64   `json:"journal_bytes_before"`
	JournalBytesAfter  int64   `json:"journal_bytes_after"`
	CompactionsBefore  uint64  `json:"compactions_before"`
	CompactionsAfter   uint64  `json:"compactions_after"`
	ShardsPerEngine    int     `json:"shards_per_engine"`
	LagRecordsEnd      uint64  `json:"lag_records_end"` // replication backlog when load stopped
	DrainMs            float64 `json:"drain_ms"`        // time to sync that backlog away
}

// ScenarioResult is the BENCH_<scenario>.json document: the committed
// latency/throughput trajectory future changes diff against.
type ScenarioResult struct {
	Scenario    string `json:"scenario"`
	Description string `json:"description,omitempty"`
	Target      string `json:"target"` // "platform" | "cold-follower" | "failover"

	Seed       uint64 `json:"seed"`
	Users      int    `json:"users"`
	Products   int    `json:"products"`
	Categories int    `json:"categories"`
	Servers    int    `json:"servers"`
	Workers    int    `json:"workers"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	RateOpsS  float64 `json:"rate_ops_s"`
	DurationS float64 `json:"duration_s"`

	ElapsedS       float64 `json:"elapsed_s"`
	Scheduled      int64   `json:"scheduled_ops"`
	Attempted      int64   `json:"attempted_ops"`
	Completed      int64   `json:"completed_ops"`
	ErrorCount     int64   `json:"error_count"`
	ThroughputOpsS float64 `json:"throughput_ops_s"`

	// Latency carries "all" plus one entry per op kind that ran
	// ("recommend", "set_profile", "purchase"), from scheduled start.
	LatencyMs map[string]LatencySummary `json:"latency_ms"`

	Metrics      *MetricsDelta       `json:"metrics,omitempty"`
	ColdFollower *ColdFollowerResult `json:"cold_follower,omitempty"`
	Shilling     *ShillResult        `json:"shilling,omitempty"`
	Failover     *FailoverResult     `json:"failover,omitempty"`

	ErrorSample []string `json:"error_sample,omitempty"`
}

// Check validates the document shape the CI smoke gate relies on: the op
// accounting must balance, percentiles must be ordered, and the error
// count must be zero (any driver-visible error in a committed trajectory
// is a regression).
func (r *ScenarioResult) Check() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("loadgen: result %q: %s", r.Scenario, fmt.Sprintf(format, args...))
	}
	if r.Scenario == "" {
		return fmt.Errorf("loadgen: result has no scenario name")
	}
	if r.RateOpsS <= 0 || r.DurationS <= 0 {
		return bad("rate/duration missing")
	}
	if r.Servers <= 0 {
		return bad("servers must be positive, got %d", r.Servers)
	}
	if r.Scheduled <= 0 {
		return bad("no ops scheduled")
	}
	if r.Attempted != r.Completed+r.ErrorCount {
		return bad("op accounting broken: attempted %d != completed %d + errors %d",
			r.Attempted, r.Completed, r.ErrorCount)
	}
	if r.Attempted > r.Scheduled {
		return bad("attempted %d exceeds scheduled %d", r.Attempted, r.Scheduled)
	}
	if r.Completed <= 0 {
		return bad("no ops completed")
	}
	if r.ErrorCount != 0 {
		return bad("error_count %d (sample: %v)", r.ErrorCount, r.ErrorSample)
	}
	if r.ThroughputOpsS <= 0 {
		return bad("throughput missing")
	}
	all, ok := r.LatencyMs["all"]
	if !ok {
		return bad(`latency_ms has no "all" entry`)
	}
	if all.Count != r.Completed {
		return bad("latency count %d != completed %d", all.Count, r.Completed)
	}
	var kindTotal int64
	for name, l := range r.LatencyMs {
		if l.Count < 0 {
			return bad("latency_ms[%s]: negative count", name)
		}
		if !(l.P50Ms <= l.P90Ms && l.P90Ms <= l.P99Ms && l.P99Ms <= l.P999Ms && l.P999Ms <= l.MaxMs) {
			return bad("latency_ms[%s]: percentiles out of order: %+v", name, l)
		}
		if name != "all" {
			kindTotal += l.Count
		}
	}
	if kindTotal != all.Count {
		return bad("per-kind latency counts sum to %d, want %d", kindTotal, all.Count)
	}
	return nil
}

// RunOptions sizes the in-process world a scenario runs against.
type RunOptions struct {
	// Servers is the in-process buyer server count [2]; > 1 runs the
	// replicated owner-routed topology.
	Servers int
	// StateDir is the durable state root of the world's servers, one
	// server-<i> directory each; empty keeps them memory-only.
	StateDir string
	// Workers is the driver's concurrent issuer count [16].
	Workers int
	// Out receives progress lines; nil is silent.
	Out io.Writer
}

// RunScenario generates the scenario's universe, boots its world, seeds
// the community, drives the open-loop load, and assembles the result
// document. The returned result is valid under Check unless err != nil.
func RunScenario(ctx context.Context, s Scenario, opt RunOptions) (*ScenarioResult, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if opt.Servers <= 0 {
		opt.Servers = 2
	}
	logf := func(format string, args ...any) {
		if opt.Out != nil {
			fmt.Fprintf(opt.Out, format+"\n", args...)
		}
	}

	logf("scenario %s: generating universe (%d users, %d products)", s.Name, s.Users, s.Products)
	u, err := workload.Generate(workload.Config{
		Seed: s.Seed, Users: s.Users, Products: s.Products, Categories: s.Categories,
	})
	if err != nil {
		return nil, err
	}
	profiles, err := u.Profiles()
	if err != nil {
		return nil, err
	}

	traffic, shillTarget, err := s.traffic(u)
	if err != nil {
		return nil, err
	}

	w, err := newWorld(s, u, opt.Servers, opt.StateDir)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	target, incidentS := s.incident()

	logf("scenario %s: seeding %d consumers into %s world (%d servers)",
		s.Name, len(profiles), target, w.serving)
	if err := platform.Seed(w.replicas[0].Engine, w.replicas[0].Router, profiles, u.Purchases()); err != nil {
		return nil, fmt.Errorf("loadgen: seeding: %w", err)
	}
	seedCtx, cancelSeed := context.WithTimeout(ctx, 30*time.Second)
	err = w.Drain(seedCtx)
	cancelSeed()
	if err != nil {
		return nil, fmt.Errorf("loadgen: seeding: %w", err)
	}

	// Shilling probes read the last serving server: a survivor of any kill.
	read := w.replicas[w.serving-1].Engine
	var shillState *shillProbeState
	if s.ShillFraction > 0 {
		shillState = shillBaseline(read, u, traffic, shillTarget, s.ShillProbes, traffic.TopN())
		logf("scenario %s: shill target %s, %d probes baselined", s.Name, shillTarget, len(shillState.probes))
	}

	before := platform.Snapshots(w.replicas)

	// The scenario's one mid-run incident — the cold server's join or the
	// owner kill — fires concurrently with the load.
	var (
		incident    sync.WaitGroup
		incidentAtS float64
		incidentErr error
	)
	loadStart := time.Now()
	if incidentS > 0 {
		incident.Add(1)
		go func() {
			defer incident.Done()
			t := time.NewTimer(secs(incidentS))
			defer t.Stop()
			select {
			case <-ctx.Done():
				incidentErr = ctx.Err()
				return
			case <-t.C:
			}
			incidentAtS = time.Since(loadStart).Seconds()
			logf("scenario %s: %s incident after %.1fs", s.Name, target, incidentAtS)
			if s.ColdFollower {
				incidentErr = w.Bootstrap(ctx)
			} else {
				incidentErr = w.Kill(ctx)
			}
		}()
	}

	logf("scenario %s: driving load at %.0f ops/s for %.0fs", s.Name, s.RateOpsS, s.DurationS)
	dr, err := Drive(ctx, s.driveConfig(opt.Workers), traffic.Op, w)
	incident.Wait()
	if err != nil {
		return nil, err
	}
	if incidentErr != nil {
		return nil, fmt.Errorf("loadgen: %s: %w", target, incidentErr)
	}

	atEnd := platform.Snapshots(w.replicas) // replication backlog at load stop, pre-drain
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	drainStart := time.Now()
	if err := w.Drain(drainCtx); err != nil {
		return nil, fmt.Errorf("loadgen: draining replicas: %w", err)
	}
	drainDur := time.Since(drainStart)
	// Every live server must now hold the same replica of every shard.
	div, err := divergentShards(w.replicas, w.live())
	if err := errors.Join(append(div, err)...); err != nil {
		return nil, fmt.Errorf("loadgen: after the final drain: %w", err)
	}
	final := platform.Snapshots(w.replicas)

	res := &ScenarioResult{
		Scenario:    s.Name,
		Description: s.Description,
		Target:      target,
		Seed:        s.Seed,
		Users:       s.Users,
		Products:    s.Products,
		Categories:  s.Categories,
		Servers:     w.serving,
		Workers:     max(opt.Workers, 0),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		RateOpsS:    s.RateOpsS,
		DurationS:   s.DurationS,

		ElapsedS:    dr.Elapsed.Seconds(),
		Scheduled:   dr.Scheduled,
		Attempted:   dr.Attempted,
		Completed:   dr.Completed,
		ErrorCount:  dr.Errors,
		ErrorSample: dr.ErrorSample,
		LatencyMs:   map[string]LatencySummary{"all": summarize(dr.All)},
	}
	if res.Workers == 0 {
		res.Workers = 16
	}
	if dr.Elapsed > 0 {
		res.ThroughputOpsS = float64(dr.Completed) / dr.Elapsed.Seconds()
	}
	for kind, kr := range dr.ByKind {
		res.LatencyMs[kind.String()] = summarize(kr.Hist)
	}
	res.Metrics = metricsDelta(before, atEnd, final, drainDur)
	switch {
	case s.ColdFollower:
		w.cold.UsersOnWarm = final.Servers[0].Engine.Users
		w.cold.UsersOnCold = final.Servers[w.serving].Engine.Users
		res.ColdFollower = w.cold
	case s.Failover:
		fo, err := w.Finish()
		if err != nil {
			return nil, fmt.Errorf("loadgen: failover: %w", err)
		}
		fo.KilledAtS = incidentAtS
		res.Failover = fo
		logf("scenario %s: failover epoch %d, window %.0fms, %d blocked, %d stale rejected, %d/%d acked writes lost, %d divergent shards",
			s.Name, fo.PromotedEpoch, fo.WriteUnavailabilityMs, fo.BlockedWrites,
			fo.StaleWritesRejected, fo.LostAckedWrites, fo.AckedWrites, fo.DivergentShards)
	}
	if shillState != nil {
		res.Shilling = shillState.finish(read, w.exec.shills.Load())
	}
	logf("scenario %s: %d/%d ops ok, %.0f ops/s, p99 %.2fms",
		s.Name, dr.Completed, dr.Scheduled, res.ThroughputOpsS, res.LatencyMs["all"].P99Ms)
	return res, nil
}

// metricsDelta reduces the before/end/final snapshots to the delta block.
func metricsDelta(before, atEnd, final ops.Snapshot, drain time.Duration) *MetricsDelta {
	if len(before.Servers) == 0 && len(final.Servers) == 0 {
		return nil
	}
	d := &MetricsDelta{
		LagRecordsEnd: atEnd.TotalLagRecords(),
		DrainMs:       float64(drain) / float64(time.Millisecond),
	}
	for _, sv := range before.Servers {
		d.UsersBefore = max(d.UsersBefore, sv.Engine.Users)
		d.JournalBytesBefore += sv.Engine.JournalBytes
		d.CompactionsBefore += sv.Engine.Compactions
	}
	for _, sv := range final.Servers {
		d.UsersAfter = max(d.UsersAfter, sv.Engine.Users)
		d.JournalBytesAfter += sv.Engine.JournalBytes
		d.CompactionsAfter += sv.Engine.Compactions
		d.ShardsPerEngine = sv.Engine.Shards
	}
	return d
}

// WriteResult writes the document to path with a trailing newline, the
// committed BENCH_<scenario>.json form.
func WriteResult(path string, res *ScenarioResult) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadResult loads a result document, for schema checks.
func ReadResult(path string) (*ScenarioResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res ScenarioResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("loadgen: parsing %s: %w", path, err)
	}
	return &res, nil
}

// secs converts scenario seconds to a Duration.
func secs(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }
