package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tictac/internal/cache"
	"tictac/internal/trace"
)

// corruptingProxy forwards to the real service but flips one byte of every
// schedule result — simulating a server that violates the determinism
// contract.
type corruptingProxy struct {
	inner http.Handler
}

func (p corruptingProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/schedule" {
		p.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	p.inner.ServeHTTP(rec, r)
	body := bytes.Replace(rec.Body.Bytes(), []byte(`"envG"`), []byte(`"envX"`), 1)
	for k, vs := range rec.Header() {
		if k == "Content-Length" {
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(rec.Code)
	w.Write(body)
}

func TestRunLoadAgainstInProcessServer(t *testing.T) {
	svc, ts := newTestServer(t, Options{})
	report, err := RunLoad(LoadOptions{
		Target:      ts.URL,
		Requests:    60,
		Concurrency: 8,
		Seed:        1,
		Models:      []string{"AlexNet v2", "Inception v1"},
		Policies:    []string{"tic"},
		CheckErrors: true,
		BatchLimit:  DefaultMaxBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Err(); err != nil {
		t.Fatalf("contract violated: %v (report %+v)", err, report)
	}
	if report.DistinctConfigs != 2 {
		t.Errorf("distinct configs = %d, want 2", report.DistinctConfigs)
	}
	if report.Failures != 0 || report.Mismatches != 0 {
		t.Errorf("failures/mismatches = %d/%d, want 0/0", report.Failures, report.Mismatches)
	}
	// Schedule builds: 2 for the 60-request schedule load (one per distinct
	// config), plus 3 for the batch mix — its 4 probes use seeds 1..4 on the
	// AlexNet config, and seed 1 coincides with the schedule load's slot —
	// plus 4 for the churn mix: 2 probes, each with a quiet and a mutated
	// fleet under distinct seeds.
	if report.ServerScheduleBuilds != 9 {
		t.Errorf("server built %d schedules, want 9 (2 load configs + 3 new batch seeds + 4 churn workloads)", report.ServerScheduleBuilds)
	}
	if report.ServerCacheHitRate <= 0.85 {
		t.Errorf("server cache hit rate = %v, want > 0.85 for 60 requests / 2 configs plus probes", report.ServerCacheHitRate)
	}
	if report.CachedResponses == 0 {
		t.Error("no response reported cached=true")
	}
	if report.Latency.Count != 60 || report.Latency.P99 <= 0 {
		t.Errorf("latency summary = %+v, want 60 samples", report.Latency)
	}
	// Batch mix: 4 probes × (1 policy variant + 1 duplicate + 1 straggler),
	// every variant byte-identical to its /v1/simulate twin.
	if report.BatchRequests != 4 || report.BatchVariants != 12 {
		t.Errorf("batch requests/variants = %d/%d, want 4/12", report.BatchRequests, report.BatchVariants)
	}
	if report.BatchMismatches != 0 || report.BatchFailures != 0 {
		t.Errorf("batch mismatches/failures = %d/%d, want 0/0", report.BatchMismatches, report.BatchFailures)
	}
	// Error-injection probes all asserted their documented status + code.
	if report.ErrorChecks != 10 || len(report.ErrorCheckFailures) != 0 {
		t.Errorf("error checks = %d (failures %v), want 10 clean probes", report.ErrorChecks, report.ErrorCheckFailures)
	}
	// Churn probes mutated the fleet mid-load; no response may be stale.
	if report.ChurnProbes != 2 || report.ChurnStale != 0 || report.ChurnFailures != 0 {
		t.Errorf("churn probes/stale/failures = %d/%d/%d, want 2/0/0",
			report.ChurnProbes, report.ChurnStale, report.ChurnFailures)
	}
	_, schedBuilds := svc.BuildCounts()
	if schedBuilds != 9 {
		t.Errorf("service built %d schedules, want 9", schedBuilds)
	}
}

// TestRunLoadChurnProbeCatchesStaleServer points the churn probe at a
// server that silently drops membership events from every simulate request
// — the cache-keying bug the probe exists to catch (a schedule computed
// for the old fleet served after the fleet changed). Every mutated-fleet
// response comes back with the quiet fleet's bytes and must be counted
// stale.
func TestRunLoadChurnProbeCatchesStaleServer(t *testing.T) {
	svc := New(Options{})
	inner := svc.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/simulate" {
			var req ScheduleRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err == nil && req.Workload != nil {
				req.Workload.Membership = nil
				body, _ := json.Marshal(req)
				r = r.Clone(r.Context())
				r.Body = io.NopCloser(bytes.NewReader(body))
				r.ContentLength = int64(len(body))
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	report, err := RunLoad(LoadOptions{
		Target:      ts.URL,
		Requests:    2,
		Concurrency: 1,
		Models:      []string{"AlexNet v2"},
		Policies:    []string{"tic"},
		Batches:     -1,
		ChurnProbes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.ChurnProbes != 1 || report.ChurnStale == 0 {
		t.Errorf("churn probes/stale = %d/%d, want 1 probe with stale responses flagged",
			report.ChurnProbes, report.ChurnStale)
	}
	if report.Err() == nil {
		t.Error("report.Err() = nil despite stale responses across a membership change")
	}
}

// The error-injection probes must catch a server whose failure paths don't
// speak the structured envelope (here: a proxy rewriting error bodies to
// plain text, as a pre-envelope server would).
func TestRunLoadErrorChecksCatchBadEnvelope(t *testing.T) {
	svc := New(Options{})
	inner := svc.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		if rec.Code >= 400 {
			w.Header().Set("Content-Type", "text/plain")
			w.WriteHeader(rec.Code)
			w.Write([]byte("error: something went wrong\n"))
			return
		}
		for k, vs := range rec.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer ts.Close()

	report, err := RunLoad(LoadOptions{
		Target:      ts.URL,
		Requests:    4,
		Concurrency: 2,
		Models:      []string{"AlexNet v2"},
		Policies:    []string{"tic"},
		Batches:     -1,
		CheckErrors: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.ErrorCheckFailures) != report.ErrorChecks || report.ErrorChecks == 0 {
		t.Errorf("error probes = %d with %d failures, want every probe to flag the plain-text server",
			report.ErrorChecks, len(report.ErrorCheckFailures))
	}
	if report.Err() == nil {
		t.Error("report.Err() = nil despite failing error probes")
	}
}

// TestRunLoadDetectsDivergence points the generator at a server that
// corrupts one field of every response; the report must flag mismatches.
func TestRunLoadDetectsDivergence(t *testing.T) {
	svc := New(Options{})
	inner := svc.Handler()
	ts := httptest.NewServer(corruptingProxy{inner: inner})
	defer ts.Close()

	report, err := RunLoad(LoadOptions{
		Target:      ts.URL,
		Requests:    10,
		Concurrency: 2,
		Models:      []string{"AlexNet v2"},
		Policies:    []string{"tic"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Mismatches != 10 {
		t.Errorf("mismatches = %d, want 10 (every response was corrupted)", report.Mismatches)
	}
	if report.Err() == nil {
		t.Error("report.Err() = nil for a diverging server")
	}
}

func TestRunLoadRequiresTarget(t *testing.T) {
	if _, err := RunLoad(LoadOptions{}); err == nil || !strings.Contains(err.Error(), "target") {
		t.Fatalf("err = %v, want missing-target error", err)
	}
}

// TestRunLoadReportsDeltasOverTheRun runs the same load twice against one
// server. The second run finds every schedule cached, and its report must
// say so: server counters cover the run, not the server's lifetime.
func TestRunLoadReportsDeltasOverTheRun(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	opts := LoadOptions{
		Target:      ts.URL,
		Requests:    60,
		Concurrency: 8,
		Seed:        1,
		Models:      []string{"AlexNet v2", "Inception v1"},
		Policies:    []string{"tic"},
		CheckErrors: true,
		BatchLimit:  DefaultMaxBatch,
	}
	for run, wantBuilds := range []uint64{9, 0} {
		report, err := RunLoad(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := report.Err(); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if report.ServerScheduleBuilds != wantBuilds {
			t.Errorf("run %d: server schedule builds = %d, want %d", run, report.ServerScheduleBuilds, wantBuilds)
		}
	}
}

// testTrace is a small fixed-seed Zipf trace over eight AlexNet configs.
func testTrace(t *testing.T) *trace.Workload {
	t.Helper()
	w, err := trace.Generate(trace.GeneratorSpec{
		Kind:    trace.GenZipf,
		Seed:    7,
		Events:  60,
		Configs: 8,
		Models:  []string{"AlexNet v2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestRunReplayInProcess replays a trace through servers whose schedule
// cache is too small for it, under each eviction policy: every response is
// byte-verified, and the report names the server's policy and shows it
// both hitting and evicting. One shard makes the eviction certain: the
// trace has more keys than the cache holds, whatever the shard seed.
func TestRunReplayInProcess(t *testing.T) {
	w := testTrace(t)
	for _, policy := range []string{cache.LRU, cache.LFU} {
		t.Run(policy, func(t *testing.T) {
			_, ts := newTestServer(t, Options{CacheCapacity: 2, CachePolicy: policy, Shards: 1})
			report, err := RunLoad(LoadOptions{
				Target:      ts.URL,
				Trace:       w,
				Batches:     -1,
				ChurnProbes: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := report.Err(); err != nil {
				t.Fatal(err)
			}
			if report.Requests != len(w.Events) || report.Trace != w.Name {
				t.Errorf("replayed %d events of trace %q, want %d of %q", report.Requests, report.Trace, len(w.Events), w.Name)
			}
			if report.Mismatches != 0 {
				t.Errorf("mismatches = %d, want 0", report.Mismatches)
			}
			if report.ServerCacheHitRate <= 0 || report.ServerScheduleEvictions == 0 {
				t.Errorf("hit rate %v, evictions %d: want both > 0", report.ServerCacheHitRate, report.ServerScheduleEvictions)
			}
			if report.ServerCachePolicy != policy {
				t.Errorf("server cache policy = %q (from /metrics), want %q", report.ServerCachePolicy, policy)
			}
		})
	}
}

// TestRunReplayAgainstFixedTarget replays a trace against a server that
// was already running: the report describes that one server, its policy
// read from /metrics and its builds counted from the trace's own misses.
func TestRunReplayAgainstFixedTarget(t *testing.T) {
	_, ts := newTestServer(t, Options{CacheCapacity: 4, CachePolicy: cache.LFU})
	w := testTrace(t)
	report, err := RunLoad(LoadOptions{Target: ts.URL, Trace: w, Batches: -1, ChurnProbes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Err(); err != nil {
		t.Fatal(err)
	}
	if report.Requests != len(w.Events) {
		t.Errorf("replayed %d events, want %d", report.Requests, len(w.Events))
	}
	if got := report.ServerCachePolicy; got != cache.LFU {
		t.Errorf("server cache policy = %q (from /metrics), want %q", got, cache.LFU)
	}
	if report.ServerScheduleBuilds == 0 || report.ServerScheduleBuilds > uint64(len(w.Events)) {
		t.Errorf("server schedule builds = %d, want 1..%d", report.ServerScheduleBuilds, len(w.Events))
	}
}

// TestRunLoadPacesTrace replays a trace on its own clock: the last event
// is due at t=0.2s, so at Timescale 1 the run cannot finish sooner.
func TestRunLoadPacesTrace(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	w := &trace.Workload{Version: trace.WorkloadVersion, Name: "paced", Events: []trace.Event{
		{T: 0, Model: "AlexNet v2", Policy: "tic"},
		{T: 0.1, Model: "AlexNet v2", Policy: "tic"},
		{T: 0.2, Model: "AlexNet v2", Policy: "tic"},
	}}
	start := time.Now()
	report, err := RunLoad(LoadOptions{Target: ts.URL, Trace: w, Timescale: 1, Batches: -1, ChurnProbes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Err(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond || report.DurationSeconds < 0.2 {
		t.Errorf("paced replay took %v (report %.3fs), want >= 200ms", elapsed, report.DurationSeconds)
	}
}

func TestRunLoadOptionValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := map[string]LoadOptions{
		"invalid trace":      {Trace: &trace.Workload{Version: trace.WorkloadVersion, Name: "empty"}},
		"negative timescale": {Trace: testTrace(t), Timescale: -1},
		"unknown model":      {Models: []string{"NoSuchNet"}},
	}
	for name, opts := range cases {
		opts.Target = ts.URL
		if _, err := RunLoad(opts); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
