package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"agentrec/internal/ops"
	"agentrec/internal/profile"
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
	// StateDir is the durable state root of the failover world's servers;
	// empty keeps them memory-only.
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
	profiles := make([]*profile.Profile, 0, len(u.Users))
	for _, usr := range u.Users {
		p, err := u.BuildProfile(usr)
		if err != nil {
			return nil, err
		}
		profiles = append(profiles, p)
	}

	// The shill target is picked from the hot category's Zipf mid-rank —
	// a product the honest community barely surfaces, so displacement is
	// attributable to the attack.
	tcfg := s.trafficConfig("")
	shillTarget := ""
	if s.ShillFraction > 0 {
		probe, err := workload.NewTraffic(u, workload.TrafficConfig{Seed: s.Seed})
		if err != nil {
			return nil, err
		}
		hp := probe.HotProducts()
		shillTarget = hp[len(hp)/2]
		tcfg = s.trafficConfig(shillTarget)
	}
	traffic, err := workload.NewTraffic(u, tcfg)
	if err != nil {
		return nil, err
	}

	var (
		w       world
		coldW   *coldWorld
		foW     *failoverWorld
		target  = "platform"
		servers = opt.Servers
	)
	switch {
	case s.ColdFollower:
		coldW, err = newColdWorld(s, u, profiles, servers)
		w, target = coldW, "cold-follower"
	case s.Failover:
		// A promotion needs a follower left over after the kill.
		if servers < 3 {
			servers = 3
		}
		foW, err = newFailoverWorld(s, u, profiles, servers, opt.StateDir)
		w, target = foW, "failover"
	default:
		w, err = newPlatformWorld(u, profiles, servers)
	}
	if err != nil {
		return nil, err
	}
	defer w.Close()

	logf("scenario %s: seeding %d consumers into %s world (%d servers)",
		s.Name, len(profiles), target, servers)
	if err := w.Seed(profiles, u.Purchases()); err != nil {
		return nil, fmt.Errorf("loadgen: seeding: %w", err)
	}
	seedCtx, cancelSeed := context.WithTimeout(ctx, 30*time.Second)
	_, err = w.Drain(seedCtx)
	cancelSeed()
	if err != nil {
		return nil, fmt.Errorf("loadgen: seeding: %w", err)
	}

	var shillState *shillProbeState
	if s.ShillFraction > 0 {
		shillState = shillBaseline(w.ReadEngine(), u, traffic, shillTarget, s.ShillProbes, traffic.TopN())
		logf("scenario %s: shill target %s, %d probes baselined", s.Name, shillTarget, len(shillState.probes))
	}

	before := w.Metrics()

	// The cold follower joins mid-run, concurrently with the load.
	var (
		coldRes *ColdFollowerResult
		coldErr error
		coldWG  sync.WaitGroup
	)
	if coldW != nil {
		coldWG.Add(1)
		go func() {
			defer coldWG.Done()
			t := time.NewTimer(secs(s.ColdFollowerDelayS))
			defer t.Stop()
			select {
			case <-ctx.Done():
				coldErr = ctx.Err()
				return
			case <-t.C:
			}
			logf("scenario %s: cold server joining after %.1fs", s.Name, s.ColdFollowerDelayS)
			coldRes, coldErr = coldW.Bootstrap(ctx)
			if coldRes != nil {
				coldRes.DelayS = s.ColdFollowerDelayS
			}
		}()
	}

	// The owner kill fires mid-run, concurrently with the load.
	var (
		foKilledAtS float64
		foErr       error
		foWG        sync.WaitGroup
	)
	loadStart := time.Now()
	if foW != nil {
		foWG.Add(1)
		go func() {
			defer foWG.Done()
			t := time.NewTimer(secs(s.FailoverDelayS))
			defer t.Stop()
			select {
			case <-ctx.Done():
				foErr = ctx.Err()
				return
			case <-t.C:
			}
			foKilledAtS = time.Since(loadStart).Seconds()
			logf("scenario %s: killing owner server %d after %.1fs", s.Name, foW.victim, foKilledAtS)
			foErr = foW.Kill(ctx)
		}()
	}

	logf("scenario %s: driving load at %.0f ops/s for %.0fs", s.Name, s.RateOpsS, s.DurationS)
	dr, err := Drive(ctx, s.driveConfig(opt.Workers), traffic.Op, w)
	coldWG.Wait()
	foWG.Wait()
	if err != nil {
		return nil, err
	}
	if coldErr != nil {
		return nil, fmt.Errorf("loadgen: cold follower: %w", coldErr)
	}
	if foErr != nil {
		return nil, fmt.Errorf("loadgen: failover kill: %w", foErr)
	}

	atEnd := w.Metrics() // replication backlog at load stop, pre-drain
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	drainDur, drainErr := w.Drain(drainCtx)
	if drainErr != nil {
		return nil, fmt.Errorf("loadgen: draining replicas: %w", drainErr)
	}
	final := w.Metrics()

	res := &ScenarioResult{
		Scenario:    s.Name,
		Description: s.Description,
		Target:      target,
		Seed:        s.Seed,
		Users:       s.Users,
		Products:    s.Products,
		Categories:  s.Categories,
		Servers:     servers,
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

		ColdFollower: coldRes,
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
	if coldRes != nil && len(final.Servers) > servers {
		coldRes.UsersOnWarm = final.Servers[0].Engine.Users
		coldRes.UsersOnCold = final.Servers[servers].Engine.Users
	}
	if foW != nil {
		foRes, err := foW.Finish()
		if err != nil {
			return nil, fmt.Errorf("loadgen: failover: %w", err)
		}
		foRes.KilledAtS = foKilledAtS
		res.Failover = foRes
		logf("scenario %s: failover epoch %d, window %.0fms, %d blocked, %d stale rejected, %d/%d acked writes lost, %d divergent shards",
			s.Name, foRes.PromotedEpoch, foRes.WriteUnavailabilityMs, foRes.BlockedWrites,
			foRes.StaleWritesRejected, foRes.LostAckedWrites, foRes.AckedWrites, foRes.DivergentShards)
	}
	if shillState != nil {
		if exec := execOf(w); exec != nil {
			res.Shilling = shillState.finish(w.ReadEngine(), exec.shills.Load())
		}
	}
	logf("scenario %s: %d/%d ops ok, %.0f ops/s, p99 %.2fms",
		s.Name, dr.Completed, dr.Scheduled, res.ThroughputOpsS, res.LatencyMs["all"].P99Ms)
	return res, nil
}

// execOf digs the op executor out of an in-process world.
func execOf(w world) *opExec {
	switch t := w.(type) {
	case *platformWorld:
		return t.exec
	case *coldWorld:
		return t.exec
	case *failoverWorld:
		return t.exec
	default:
		return nil
	}
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
