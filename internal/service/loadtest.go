package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tictac/internal/cache"
	"tictac/internal/cluster"
	"tictac/internal/core"
	"tictac/internal/stats"
	"tictac/internal/trace"
)

// LoadOptions configures RunLoad, the deterministic load generator behind
// `tictacd -loadtest` and the CI service-smoke job.
type LoadOptions struct {
	// Target is the base URL of a running tictacd, e.g.
	// "http://127.0.0.1:8080".
	Target string
	// Requests is the number of schedule requests in the synthetic source
	// (default 200). A Trace replays each of its events once instead.
	Requests int
	// Concurrency is the number of concurrent client workers (default 16).
	Concurrency int
	// Seed parameterizes the workload's request seeds; the workload itself
	// (which configs, in which slots) is a pure function of the options.
	Seed int64
	// Models are the Table 1 model names to request (default: a small
	// fast trio).
	Models []string
	// Policies are the scheduling policies to request (default tic and
	// critical-path — analytic policies, so the direct-reference
	// computation stays cheap).
	Policies []string
	// Batches is the number of /v1/batch requests mixed into the load
	// (default 4; negative disables). Every batch variant's payload is
	// compared byte-for-byte against the equivalent single /v1/simulate
	// response — any divergence is a mismatch.
	Batches int
	// ChurnProbes is the number of membership-churn probes mixed into the
	// load (default 2; negative disables). Each probe fires one workload
	// quiet and again with a membership mutation (a mid-iteration worker
	// fail, a PS shard fail, a rejoin) and asserts zero stale responses:
	// the mutated workload's payload must match a direct library
	// recomputation on the new fleet timeline, its membership digest must
	// diverge from the quiet one, and the quiet workload must keep
	// serving its original bytes after the mutation.
	ChurnProbes int
	// CheckErrors enables the error-injection probes: deliberately broken
	// requests asserting that every failure path returns the structured
	// envelope with its documented status and stable code.
	CheckErrors bool
	// BatchLimit is the server's -max-batch value; when > 0 (and
	// CheckErrors is set) the probes include an oversized batch asserting
	// 413 batch_too_large.
	BatchLimit int
	// Client overrides the HTTP client (default: 30s timeout).
	Client *http.Client
	// FleetTargets, when non-empty, puts the loadtest in fleet mode
	// (`tictacd -loadtest -fleet-targets ...`): requests are spread
	// round-robin across every member URL (Target may be empty), responses
	// are still byte-verified against direct library computation — the
	// fleet determinism contract says the answer is identical whichever
	// node serves it — and a request that fails at the transport level or
	// with a transient 503 fleet_unavailable retries on the other members
	// (counted in FleetRetries) before it counts as a failure, so killing
	// a node mid-load must produce zero wrong answers and zero failures.
	// Server counters are collected from every reachable member and
	// summed into AggregateHitRate.
	FleetTargets []string
	// Progress, when non-nil, is called after each completed schedule
	// request with (completed, total). It may be called concurrently.
	// Fleet kill tests use it to fell a node deterministically mid-load.
	Progress func(completed, total int)
	// Trace, when non-nil, is the request source: each event is one
	// /v1/schedule request (see docs/cache-policies.md for the format).
	// When nil, RunLoad builds the synthetic source: Requests events
	// cycling through Models × Policies. Models and Policies also shape
	// the batch, churn and error probes, whatever the source.
	Trace *trace.Workload
	// Timescale maps trace time to wall-clock for the open-loop feeder:
	// event i is released T×Timescale seconds after the run starts. 0
	// releases events as fast as workers accept them.
	Timescale float64
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Requests <= 0 {
		o.Requests = 200
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 16
	}
	if len(o.Models) == 0 {
		o.Models = []string{"AlexNet v2", "Inception v1", "ResNet-50 v1"}
	}
	if len(o.Policies) == 0 {
		o.Policies = []string{"tic", "critical-path"}
	}
	if o.Batches == 0 {
		o.Batches = 4
	}
	if o.Batches < 0 {
		o.Batches = 0
	}
	if o.ChurnProbes == 0 {
		o.ChurnProbes = 2
	}
	if o.ChurnProbes < 0 {
		o.ChurnProbes = 0
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return o
}

// LoadReport summarizes one load run. Failures are transport/HTTP errors;
// Mismatches are responses whose result payload differed from the direct
// library computation — the determinism contract violation the generator
// exists to catch. The Batch* fields hold the /v1/batch mix to the same
// bar: a batch variant's bytes must equal its single /v1/simulate twin.
type LoadReport struct {
	Target string `json:"target"`
	// Trace names the request source: the trace's name, or "synthetic".
	Trace           string               `json:"trace"`
	Requests        int                  `json:"requests"`
	Concurrency     int                  `json:"concurrency"`
	DistinctConfigs int                  `json:"distinct_configs"`
	Failures        int                  `json:"failures"`
	Mismatches      int                  `json:"mismatches"`
	CachedResponses int                  `json:"cached_responses"`
	DurationSeconds float64              `json:"duration_seconds"`
	Latency         stats.LatencySummary `json:"latency_seconds"`
	// Batch mix: requests fired, variants compared, divergences, failures.
	BatchRequests   int `json:"batch_requests"`
	BatchVariants   int `json:"batch_variants"`
	BatchMismatches int `json:"batch_mismatches"`
	BatchFailures   int `json:"batch_failures"`
	// Churn probes: membership mutations mid-load. ChurnStale counts
	// byte-wrong responses around a mutation — the schedule-invalidation
	// contract violation; ChurnFailures are probe transport/setup errors.
	ChurnProbes   int `json:"churn_probes"`
	ChurnStale    int `json:"churn_stale"`
	ChurnFailures int `json:"churn_failures"`
	// Error-injection probes: count run, failures (wrong status or code),
	// and what went wrong.
	ErrorChecks        int      `json:"error_checks"`
	ErrorCheckFailures []string `json:"error_check_failures,omitempty"`
	// Server-side view: /metrics read before and after the run, reported
	// as the difference, so traffic a long-lived server saw before the run
	// never counts. In fleet mode these are summed across every member
	// reachable at the end. The hit rate is cache.Stats.HitRate.
	ServerCachePolicy       string  `json:"server_cache_policy"`
	ServerScheduleBuilds    uint64  `json:"server_schedule_builds"`
	ServerScheduleEvictions uint64  `json:"server_schedule_evictions"`
	ServerCacheHitRate      float64 `json:"server_schedule_cache_hit_rate"`

	// Fleet mode (empty/zero otherwise). FleetRetries counts transient
	// failovers absorbed while a member was dying or dead; DeadTargets are
	// members unreachable at end-of-run metrics collection (an intentional
	// kill lands here); AggregateHitRate is the schedule-cache hit rate
	// summed across reachable members — the fleet-behaves-like-one-cache
	// number the CI fleet-smoke job compares against single-node.
	FleetTargets     []string                 `json:"fleet_targets,omitempty"`
	FleetRetries     int                      `json:"fleet_retries,omitempty"`
	DeadTargets      []string                 `json:"dead_targets,omitempty"`
	AggregateHitRate float64                  `json:"aggregate_hit_rate,omitempty"`
	PerNode          map[string]NodeLoadStats `json:"per_node,omitempty"`
}

// NodeLoadStats is one fleet member's slice of the load, as deltas over
// the run: its schedule-cache counters plus its fleet forward/hedge/drain
// totals — the per-node section of the CI fleet report artifact.
type NodeLoadStats struct {
	Node           string  `json:"node"`
	HitRate        float64 `json:"hit_rate"`
	Hits           uint64  `json:"hits"`
	Misses         uint64  `json:"misses"`
	Coalesced      uint64  `json:"coalesced"`
	Evictions      uint64  `json:"evictions"`
	ScheduleBuilds uint64  `json:"schedule_builds"`
	ForwardedIn    uint64  `json:"forwarded_in"`
	ForwardedOut   uint64  `json:"forwarded_out"`
	Hedges         uint64  `json:"hedges"`
	Drained        uint64  `json:"drained"`
	Warmed         uint64  `json:"warmed"`
}

// Err returns nil when the run upheld the service contract: every request
// succeeded, every response matched the direct library computation
// byte-for-byte, every batch variant matched its single-request twin, every
// injected error came back with its documented code, and the server's
// schedule cache absorbed repeats.
func (r *LoadReport) Err() error {
	if r.Failures > 0 {
		return fmt.Errorf("loadtest: %d/%d requests failed", r.Failures, r.Requests)
	}
	if r.Mismatches > 0 {
		return fmt.Errorf("loadtest: %d responses diverged from direct library computation", r.Mismatches)
	}
	if r.BatchFailures > 0 {
		return fmt.Errorf("loadtest: %d/%d batch requests failed", r.BatchFailures, r.BatchRequests)
	}
	if r.BatchMismatches > 0 {
		return fmt.Errorf("loadtest: %d batch variants diverged from their /v1/simulate twin", r.BatchMismatches)
	}
	if r.ChurnFailures > 0 {
		return fmt.Errorf("loadtest: %d/%d churn probes failed", r.ChurnFailures, r.ChurnProbes)
	}
	if r.ChurnStale > 0 {
		return fmt.Errorf("loadtest: %d stale responses served across a membership change", r.ChurnStale)
	}
	if len(r.ErrorCheckFailures) > 0 {
		return fmt.Errorf("loadtest: %d/%d error probes failed: %s",
			len(r.ErrorCheckFailures), r.ErrorChecks, strings.Join(r.ErrorCheckFailures, "; "))
	}
	if r.Requests > r.DistinctConfigs && r.ServerCacheHitRate <= 0 {
		return fmt.Errorf("loadtest: schedule cache hit rate is zero across %d requests over %d configs", r.Requests, r.DistinctConfigs)
	}
	return nil
}

// RunLoad hammers a running tictacd with a deterministic request mix and
// verifies every response against a direct library call.
//
// The schedule requests come from one source, a trace.Workload: opts.Trace,
// or the synthetic cycle through Models × Policies (workers=2, ps=1), in
// which case Requests > distinct configs forces the server to serve
// repeats from cache. For each distinct event key the expected result is
// computed once, in-process, through the exact same code path the
// server's cache build uses (cluster.Build → ComputeSchedule → one
// predicted iteration) — a response that differs in any byte is a mismatch.
//
// Mixed into the same worker pool, Batches /v1/batch requests fan a policy
// sweep (plus a duplicate and a straggler scenario) over the first model;
// each variant's payload is then fetched again as a single /v1/simulate
// request and compared byte-for-byte.
func RunLoad(opts LoadOptions) (*LoadReport, error) {
	opts = opts.withDefaults()
	if opts.Target == "" && len(opts.FleetTargets) == 0 {
		return nil, fmt.Errorf("loadtest: no target URL")
	}
	if opts.Timescale < 0 {
		return nil, fmt.Errorf("loadtest: timescale must be >= 0 (got %g)", opts.Timescale)
	}
	w := opts.Trace
	if w == nil {
		w = syntheticWorkload(opts)
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("loadtest: %w", err)
	}
	want, err := expectedPayloads(w)
	if err != nil {
		return nil, err
	}
	d := newLoadDialer(opts)
	collector := startCollector(opts.Client, d.targets)

	events := w.Events
	report := &LoadReport{
		Target:          opts.Target,
		Trace:           w.Name,
		Requests:        len(events),
		Concurrency:     opts.Concurrency,
		DistinctConfigs: len(want),
		BatchRequests:   opts.Batches,
		ChurnProbes:     opts.ChurnProbes,
		FleetTargets:    opts.FleetTargets,
	}
	var failures, mismatches, cached atomic.Int64
	var batchVariants, batchMismatches, batchFailures atomic.Int64
	var churnStale, churnFailures atomic.Int64
	var scheduleDone atomic.Int64
	lat := stats.NewLatencyRecorder(len(events))
	// Job indices [0, n) are trace events; [n, n+Batches) are batch
	// requests and [n+Batches, n+Batches+ChurnProbes) churn probes,
	// interleaved into the feed. The queue holds every job, so the feeder
	// releases each event on the trace clock however slow the server is.
	n, extras := len(events), opts.Batches+opts.ChurnProbes
	jobs := make(chan int, n+extras)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < opts.Concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if j >= n+opts.Batches {
					stale, err := runChurnProbe(d, opts, int64(j-n-opts.Batches))
					churnStale.Add(int64(stale))
					if err != nil {
						churnFailures.Add(1)
					}
					continue
				}
				if j >= n {
					vars, miss, err := runBatchProbe(d, opts, int64(j-n))
					batchVariants.Add(int64(vars))
					batchMismatches.Add(int64(miss))
					if err != nil {
						batchFailures.Add(1)
					}
					continue
				}
				e := events[j]
				spec := eventSpec(e)
				t0 := time.Now()
				gotCached, got, err := postResult(d, "/v1/schedule", ScheduleRequest{Workload: &spec})
				lat.Observe(time.Since(t0).Seconds())
				switch {
				case err != nil:
					failures.Add(1)
				case !bytes.Equal(got, want[e.Key()]):
					mismatches.Add(1)
				case gotCached:
					cached.Add(1)
				}
				if done := scheduleDone.Add(1); opts.Progress != nil {
					opts.Progress(int(done), n)
				}
			}
		}()
	}
	stride := n
	if extras > 0 {
		stride = max(n/extras, 1)
	}
	sent := 0
	for i, e := range events {
		if opts.Timescale > 0 {
			if wait := time.Duration(e.T*opts.Timescale*float64(time.Second)) - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
		}
		jobs <- i
		if extras > 0 && (i+1)%stride == 0 && sent < extras {
			jobs <- n + sent
			sent++
		}
	}
	for ; sent < extras; sent++ {
		jobs <- n + sent
	}
	close(jobs)
	wg.Wait()
	report.DurationSeconds = time.Since(start).Seconds()
	report.Failures = int(failures.Load())
	report.Mismatches = int(mismatches.Load())
	report.CachedResponses = int(cached.Load())
	report.BatchVariants = int(batchVariants.Load())
	report.BatchMismatches = int(batchMismatches.Load())
	report.BatchFailures = int(batchFailures.Load())
	report.ChurnStale = int(churnStale.Load())
	report.ChurnFailures = int(churnFailures.Load())
	report.Latency = lat.Snapshot()

	if opts.CheckErrors {
		report.ErrorChecks, report.ErrorCheckFailures = runErrorChecks(d, opts)
	}
	report.FleetRetries = int(d.retries.Load()) // a single target never retries
	return report, collector.finish(report, len(opts.FleetTargets) > 0)
}

// syntheticWorkload is the default request source: Requests events cycling
// through Models × Policies at workers=2, ps=1 and one seed, all at t=0.
func syntheticWorkload(opts LoadOptions) *trace.Workload {
	w := &trace.Workload{Version: trace.WorkloadVersion, Name: "synthetic", Seed: opts.Seed}
	per := len(opts.Policies)
	for i := 0; i < opts.Requests; i++ {
		slot := i % (len(opts.Models) * per)
		w.Events = append(w.Events, trace.Event{
			Model:   opts.Models[slot/per],
			Policy:  opts.Policies[slot%per],
			Workers: 2,
			PS:      1,
			Seed:    opts.Seed,
		})
	}
	return w
}

// eventSpec is the workload one trace event requests.
func eventSpec(e trace.Event) WorkloadSpec {
	return WorkloadSpec{Model: e.Model, Policy: e.Policy, Workers: e.Workers, PS: e.PS, Seed: e.Seed}
}

// expectedPayloads computes the direct-library reference payload for each
// distinct event key in the trace, once.
func expectedPayloads(w *trace.Workload) (map[string][]byte, error) {
	want := make(map[string][]byte)
	for _, e := range w.Events {
		k := e.Key()
		if _, ok := want[k]; ok {
			continue
		}
		ref, err := directSchedule(eventSpec(e))
		if err != nil {
			return nil, fmt.Errorf("loadtest: event %q: %w", k, err)
		}
		want[k] = ref.entry.payload
	}
	return want, nil
}

// directRef is a workload's reference answer, computed in-process.
type directRef struct {
	ce    *clusterEntry
	entry *scheduleEntry
	res   resolved
}

// directSchedule computes spec's schedule entry through the exact code path
// the server's cache build uses (resolve → cluster.Build →
// computeScheduleResult), so a served payload that differs in any byte is
// a determinism-contract violation.
func directSchedule(spec WorkloadSpec) (directRef, error) {
	res, err := spec.resolve()
	if err != nil {
		return directRef{}, err
	}
	c, err := cluster.Build(res.cfg)
	if err != nil {
		return directRef{}, err
	}
	ce := &clusterEntry{c: c, graphDigest: core.GraphDigest(c.Graph), platformDigest: res.key.platformDigest}
	entry, err := computeScheduleResult(ce, res)
	if err != nil {
		return directRef{}, err
	}
	return directRef{ce: ce, entry: entry, res: res}, nil
}

// loadCollector reads every target's /metrics before and after a run, so
// the report carries the run's own server-side counts.
type loadCollector struct {
	client  *http.Client
	targets []string
	before  []*MetricsResponse // nil where a target was unreachable
}

func startCollector(client *http.Client, targets []string) *loadCollector {
	c := &loadCollector{client: client, targets: targets, before: make([]*MetricsResponse, len(targets))}
	for i, t := range targets {
		c.before[i], _ = fetchMetrics(client, t)
	}
	return c
}

// finish reads every target again and fills the report's server-side
// fields with the per-node deltas, summed. A target unreachable at the end
// is recorded in DeadTargets, not fatal — but every target being
// unreachable is. The per-node section is filled in fleet mode only.
func (c *loadCollector) finish(report *LoadReport, fleetMode bool) error {
	var total cache.Stats
	var dead []string
	perNode := make(map[string]NodeLoadStats, len(c.targets))
	var lastErr error
	for i, t := range c.targets {
		after, err := fetchMetrics(c.client, t)
		if err != nil {
			dead, lastErr = append(dead, t), err
			continue
		}
		ns := nodeStats(after).since(nodeStats(c.before[i]))
		perNode[t] = ns
		if report.ServerCachePolicy == "" {
			report.ServerCachePolicy = after.Cache.Schedules.Policy
		}
		st := ns.cacheStats()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Coalesced += st.Coalesced
		total.Evictions += st.Evictions
		report.ServerScheduleBuilds += ns.ScheduleBuilds
	}
	report.ServerScheduleEvictions = total.Evictions
	report.ServerCacheHitRate = total.HitRate()
	if fleetMode {
		report.PerNode, report.DeadTargets = perNode, dead
		report.AggregateHitRate = report.ServerCacheHitRate
	}
	if len(dead) == len(c.targets) {
		return fmt.Errorf("loadtest: fetch metrics: no target reachable: %w", lastErr)
	}
	return nil
}

// nodeStats is one node's cumulative counters from a /metrics reading
// (zero for nil).
func nodeStats(m *MetricsResponse) NodeLoadStats {
	if m == nil {
		return NodeLoadStats{}
	}
	s := m.Cache.Schedules
	ns := NodeLoadStats{
		Hits:           s.Hits,
		Misses:         s.Misses,
		Coalesced:      s.Coalesced,
		Evictions:      s.Evictions,
		ScheduleBuilds: m.Builds.Schedules,
	}
	if m.Fleet != nil {
		ns.Node = m.Fleet.Node
		ns.ForwardedIn = m.Fleet.ForwardedIn
		ns.Drained = m.Fleet.Drained
		ns.Warmed = m.Fleet.Warmed
		for _, pv := range m.Fleet.Members {
			ns.ForwardedOut += pv.Forwarded
			ns.Hedges += pv.Hedges
		}
	}
	return ns
}

// since returns the counters accumulated between the before reading and
// ns, with the hit rate taken over that window.
func (ns NodeLoadStats) since(before NodeLoadStats) NodeLoadStats {
	d := NodeLoadStats{
		Node:           ns.Node,
		Hits:           ns.Hits - before.Hits,
		Misses:         ns.Misses - before.Misses,
		Coalesced:      ns.Coalesced - before.Coalesced,
		Evictions:      ns.Evictions - before.Evictions,
		ScheduleBuilds: ns.ScheduleBuilds - before.ScheduleBuilds,
		ForwardedIn:    ns.ForwardedIn - before.ForwardedIn,
		ForwardedOut:   ns.ForwardedOut - before.ForwardedOut,
		Hedges:         ns.Hedges - before.Hedges,
		Drained:        ns.Drained - before.Drained,
		Warmed:         ns.Warmed - before.Warmed,
	}
	d.HitRate = d.cacheStats().HitRate()
	return d
}

func (ns NodeLoadStats) cacheStats() cache.Stats {
	return cache.Stats{Hits: ns.Hits, Misses: ns.Misses, Coalesced: ns.Coalesced, Evictions: ns.Evictions}
}

// loadBatchRequest is the deterministic batch request for probe b: a policy
// sweep over the first model, plus a duplicate of the first variant (which
// the server must coalesce) and a straggler scenario.
func loadBatchRequest(opts LoadOptions, b int64) BatchRequest {
	base := WorkloadSpec{
		Model:             opts.Models[0],
		Workers:           2,
		PS:                1,
		Seed:              opts.Seed + b,
		MeasureIterations: 4,
	}
	req := BatchRequest{Workload: &base}
	for _, p := range opts.Policies {
		p := p
		req.Variants = append(req.Variants, BatchVariant{Label: "policy-" + p, Policy: &p})
	}
	req.Variants = append(req.Variants, req.Variants[0])
	slow := opts.Policies[0]
	req.Variants = append(req.Variants, BatchVariant{
		Label:      "straggler",
		Policy:     &slow,
		Stragglers: &[]StragglerSpec{{Worker: 0, Factor: 2.5, From: 1, Until: 3}},
	})
	return req
}

// runBatchProbe fires one batch request and compares every variant's
// payload byte-for-byte against the equivalent single /v1/simulate
// response. Returns (variants compared, mismatches, transport error).
func runBatchProbe(d *loadDialer, opts LoadOptions, b int64) (vars, mismatches int, err error) {
	req := loadBatchRequest(opts, b)
	status, payload, err := postJSON(d, "/v1/batch", req)
	if err != nil {
		return 0, 0, err
	}
	if status != http.StatusOK {
		return 0, 0, fmt.Errorf("batch status %d: %s", status, payload)
	}
	var resp BatchResponse
	if err := json.Unmarshal(payload, &resp); err != nil {
		return 0, 0, err
	}
	if len(resp.Variants) != len(req.Variants) {
		return 0, 0, fmt.Errorf("batch returned %d variants for %d", len(resp.Variants), len(req.Variants))
	}
	base := *req.Workload
	for i, vr := range resp.Variants {
		if vr.Error != nil {
			return vars, mismatches, fmt.Errorf("variant %d: %s: %s", i, vr.Error.Code, vr.Error.Message)
		}
		spec := req.Variants[i].apply(base)
		_, single, err := postResult(d, "/v1/simulate", ScheduleRequest{Workload: &spec})
		if err != nil {
			return vars, mismatches, fmt.Errorf("simulate twin: %w", err)
		}
		var got bytes.Buffer
		if err := json.Compact(&got, vr.Result); err != nil {
			return vars, mismatches, err
		}
		vars++
		if !bytes.Equal(got.Bytes(), single) {
			mismatches++
		}
	}
	return vars, mismatches, nil
}

// churnProbeSpecs builds probe k's workload pair: the same spec quiet and
// with a membership mutation (a mid-iteration worker fail, a PS shard
// fail, a rejoin), rotating the struck worker and shard across probes.
func churnProbeSpecs(opts LoadOptions, k int64) (quiet, churn WorkloadSpec) {
	quiet = WorkloadSpec{
		Model:             opts.Models[0],
		Policy:            opts.Policies[0],
		Workers:           4,
		PS:                2,
		Seed:              opts.Seed + 97*k,
		MeasureIterations: 4,
	}
	churn = quiet
	w := 1 + int(k%3)
	churn.Membership = []MembershipEventSpec{
		{Kind: "worker_fail", Worker: w, Iteration: 1},
		{Kind: "ps_shard_fail", PS: int(k % 2), Iteration: 2},
		{Kind: "worker_join", Worker: w, Iteration: 3},
	}
	return quiet, churn
}

// directSimulate computes the reference simulate payload for a spec
// through the exact code path the server's handlers use (directSchedule →
// computeSimulateResult).
func directSimulate(spec WorkloadSpec) (SimulateResult, []byte, error) {
	ref, err := directSchedule(spec)
	if err != nil {
		return SimulateResult{}, nil, err
	}
	result, err := computeSimulateResult(ref.ce, ref.entry, ref.res)
	if err != nil {
		return SimulateResult{}, nil, err
	}
	payload, err := json.Marshal(result)
	return result, payload, err
}

// runChurnProbe kills a worker and a PS shard mid-protocol on a workload
// the server has already cached quiet, and holds the server to the
// schedule-invalidation contract: the mutated workload's response must
// match a direct library recomputation on the new fleet timeline (its
// membership digest diverging from the quiet one), and the quiet workload
// must keep serving its original bytes after the mutation. Returns the
// count of byte-wrong (stale) responses plus any transport/setup error.
func runChurnProbe(d *loadDialer, opts LoadOptions, k int64) (stale int, err error) {
	quiet, churn := churnProbeSpecs(opts, k)
	quietRes, quietWant, err := directSimulate(quiet)
	if err != nil {
		return 0, fmt.Errorf("churn probe reference (quiet): %w", err)
	}
	churnRes, churnWant, err := directSimulate(churn)
	if err != nil {
		return 0, fmt.Errorf("churn probe reference (churn): %w", err)
	}
	if churnRes.MembershipDigest == quietRes.MembershipDigest {
		return 0, fmt.Errorf("churn probe: membership digest did not diverge")
	}
	if bytes.Equal(churnWant, quietWant) {
		return 0, fmt.Errorf("churn probe: churn payload identical to quiet payload")
	}
	check := func(spec WorkloadSpec, want []byte) error {
		_, got, err := postResult(d, "/v1/simulate", ScheduleRequest{Workload: &spec})
		if err != nil {
			return fmt.Errorf("churn probe simulate: %w", err)
		}
		if !bytes.Equal(got, want) {
			stale++
		}
		return nil
	}
	// Warm the quiet slot, mutate membership, then re-check both sides: a
	// stale hit in either direction — the churn request served the quiet
	// schedule, or the quiet request poisoned by the churn entry — counts.
	for _, step := range []struct {
		spec WorkloadSpec
		want []byte
	}{{quiet, quietWant}, {churn, churnWant}, {quiet, quietWant}, {churn, churnWant}} {
		if err := check(step.spec, step.want); err != nil {
			return stale, err
		}
	}
	return stale, nil
}

// runErrorChecks fires deliberately broken requests and asserts each comes
// back with its documented HTTP status and stable error code.
func runErrorChecks(d *loadDialer, opts LoadOptions) (checks int, failed []string) {
	expect := func(name string, wantStatus int, wantCode string, status int, payload []byte, err error) {
		checks++
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", name, err))
			return
		}
		var er ErrorResponse
		if jsonErr := json.Unmarshal(payload, &er); jsonErr != nil {
			failed = append(failed, fmt.Sprintf("%s: non-envelope error body %q", name, payload))
			return
		}
		if status != wantStatus || er.Error.Code != wantCode {
			failed = append(failed, fmt.Sprintf("%s: got %d/%s, want %d/%s", name, status, er.Error.Code, wantStatus, wantCode))
		}
	}
	post := func(path string, v any) (int, []byte, error) {
		return postJSON(d, path, v)
	}

	st, body, err := post("/v1/schedule", ScheduleRequest{Workload: &WorkloadSpec{Model: "NoSuchNet"}})
	expect("unknown model", http.StatusBadRequest, CodeUnknownModel, st, body, err)

	st, body, err = post("/v1/simulate", ScheduleRequest{Workload: &WorkloadSpec{Model: opts.Models[0], Policy: "astrology"}})
	expect("unknown policy", http.StatusBadRequest, CodeUnknownPolicy, st, body, err)

	st, body, err = postRaw(d, "/v1/schedule", []byte(`{"model": `))
	expect("malformed JSON", http.StatusBadRequest, CodeBadRequest, st, body, err)

	st, body, err = getRaw(d, "/v1/schedule")
	expect("wrong method", http.StatusMethodNotAllowed, CodeMethodNotAllowed, st, body, err)

	st, body, err = getRaw(d, "/v1/nope")
	expect("unknown path", http.StatusNotFound, CodeNotFound, st, body, err)

	st, body, err = post("/v1/batch", BatchRequest{Workload: &WorkloadSpec{Model: opts.Models[0]}})
	expect("empty batch", http.StatusBadRequest, CodeBadRequest, st, body, err)

	st, body, err = post("/v1/schedule", ScheduleRequest{Workload: &WorkloadSpec{
		Model: opts.Models[0], Workers: 2,
		Membership: []MembershipEventSpec{
			{Kind: "worker_leave", Worker: 1, Iteration: 0},
			{Kind: "worker_fail", Worker: 1, Iteration: 1},
		}}})
	expect("departed worker", http.StatusBadRequest, CodeDepartedWorker, st, body, err)

	st, body, err = post("/v1/simulate", ScheduleRequest{Workload: &WorkloadSpec{
		Model: opts.Models[0], Workers: 2,
		Membership: []MembershipEventSpec{{Kind: "worker_leave", Worker: 1, Iteration: 0}},
		Stragglers: []StragglerSpec{{Worker: 1, Factor: 2}}}})
	expect("straggler on departed worker", http.StatusBadRequest, CodeDepartedWorker, st, body, err)

	st, body, err = post("/v1/schedule", ScheduleRequest{Workload: &WorkloadSpec{
		Model: opts.Models[0], Workers: 2,
		Membership: []MembershipEventSpec{{Kind: "meteor", Worker: 1}}}})
	expect("unknown membership kind", http.StatusBadRequest, CodeBadRequest, st, body, err)

	if opts.BatchLimit > 0 {
		over := BatchRequest{Workload: &WorkloadSpec{Model: opts.Models[0]}}
		over.Variants = make([]BatchVariant, opts.BatchLimit+1)
		st, body, err = post("/v1/batch", over)
		expect("oversized batch", http.StatusRequestEntityTooLarge, CodeBatchTooLarge, st, body, err)
	}
	return checks, failed
}

// postResult POSTs v to a workload endpoint and returns the response's
// cached flag and its "result" member in compact form, since simulate
// responses are indented while reference payloads are compact. A non-200
// status is an error.
func postResult(d *loadDialer, path string, v any) (cached bool, result []byte, err error) {
	status, payload, err := postJSON(d, path, v)
	if err != nil {
		return false, nil, err
	}
	if status != http.StatusOK {
		return false, nil, fmt.Errorf("status %d: %s", status, payload)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(payload, &sr); err != nil {
		return false, nil, err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, sr.Result); err != nil {
		return false, nil, err
	}
	return sr.Cached, buf.Bytes(), nil
}

// loadDialer routes loadtest requests at the target set. Single-target mode
// is exactly the old behavior: one URL, no retries. Fleet mode spreads
// calls round-robin across the member URLs and absorbs the transients a
// mid-load node kill produces — connection failures to the dying node, and
// 503 fleet_unavailable from a survivor whose forward chain still lists it
// — by retrying the call on the other members, with a short pause so the
// health layer has probe cycles to mark the peer down. The fleet's answer
// is byte-identical on every member, so failover never weakens the
// verification: a retried response is checked against the same reference.
type loadDialer struct {
	client  *http.Client
	targets []string
	next    atomic.Uint64
	retries atomic.Int64
}

func newLoadDialer(opts LoadOptions) *loadDialer {
	targets := opts.FleetTargets
	if len(targets) == 0 {
		targets = []string{opts.Target}
	}
	return &loadDialer{client: opts.Client, targets: targets}
}

// retryPause is the wait between fleet failover attempts: a few health
// probe intervals, so a dead member leaves every survivor's ring while the
// loadtest waits instead of burning its attempts.
const retryPause = 150 * time.Millisecond

// do performs one logical request, failing over across fleet targets.
func (d *loadDialer) do(method, path string, body []byte) (int, []byte, error) {
	start := int(d.next.Add(1) - 1)
	tries := 1
	if len(d.targets) > 1 {
		tries = 3 * len(d.targets)
	}
	var lastErr error
	for t := 0; t < tries; t++ {
		target := d.targets[(start+t)%len(d.targets)]
		status, payload, err := doOnce(d.client, method, target+path, body)
		if err == nil && !(status == http.StatusServiceUnavailable && bytes.Contains(payload, []byte(CodeFleetUnavailable))) {
			return status, payload, nil
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("status %d: %s", status, payload)
		}
		if t < tries-1 {
			d.retries.Add(1)
			time.Sleep(retryPause)
		}
	}
	return 0, nil, fmt.Errorf("all %d targets failed: %w", len(d.targets), lastErr)
}

func doOnce(client *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, payload, nil
}

// postJSON marshals v and POSTs it, returning the status and body.
func postJSON(d *loadDialer, path string, v any) (int, []byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	return postRaw(d, path, body)
}

func postRaw(d *loadDialer, path string, body []byte) (int, []byte, error) {
	return d.do(http.MethodPost, path, body)
}

func getRaw(d *loadDialer, path string) (int, []byte, error) {
	return d.do(http.MethodGet, path, nil)
}

func fetchMetrics(client *http.Client, target string) (*MetricsResponse, error) {
	resp, err := client.Get(target + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var m MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}
