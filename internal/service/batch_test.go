package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
)

func strp(s string) *string   { return &s }
func i64p(v int64) *int64     { return &v }
func f64p(v float64) *float64 { return &v }

// postBatch posts a batch request and decodes the response.
func postBatch(t *testing.T, url string, req BatchRequest) (*http.Response, []byte, BatchResponse) {
	t.Helper()
	resp, payload := post(t, url+"/v1/batch", req)
	var br BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(payload, &br); err != nil {
			t.Fatalf("decode batch response: %v\n%s", err, payload)
		}
	}
	return resp, payload, br
}

// TestBatchEndpoint covers the core contract: every variant's payload is
// byte-identical to the individual /v1/simulate response for the same spec,
// and the summary ranks variants fastest-first with policy winners per
// scenario.
func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	base := WorkloadSpec{Model: "AlexNet v2", Workers: 2, PS: 1, Seed: 11, MeasureIterations: 4}
	req := BatchRequest{
		Workload: &base,
		Variants: []BatchVariant{
			{Label: "baseline", Policy: strp("none")},
			{Label: "tic", Policy: strp("tic")},
			{Label: "cp", Policy: strp("critical-path")},
			{Label: "tic-slow-w1", Policy: strp("tic"), Overrides: &PlatformOverrides{
				Devices: map[string]DeviceOverride{"worker:1": {SlowCompute: 2}},
			}},
			{Label: "tic-straggler", Policy: strp("tic"),
				Stragglers: &[]StragglerSpec{{Worker: 0, Factor: 3, From: 1, Until: 3}}},
		},
	}
	resp, payload, br := postBatch(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, payload)
	}
	if len(br.Variants) != len(req.Variants) {
		t.Fatalf("got %d variant results, want %d", len(br.Variants), len(req.Variants))
	}

	// Byte-identity: each variant vs its single-request twin.
	for i, vr := range br.Variants {
		if vr.Error != nil {
			t.Fatalf("variant %d failed: %+v", i, vr.Error)
		}
		single := ScheduleRequest{Workload: func() *WorkloadSpec {
			s := req.Variants[i].apply(base)
			return &s
		}()}
		sresp, spayload := post(t, ts.URL+"/v1/simulate", single)
		if sresp.StatusCode != http.StatusOK {
			t.Fatalf("simulate twin %d: status %d: %s", i, sresp.StatusCode, spayload)
		}
		var sr struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(spayload, &sr); err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := json.Compact(&a, vr.Result); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&b, sr.Result); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("variant %d (%s) diverged from its /v1/simulate twin:\n%s\nvs\n%s",
				i, vr.Label, a.Bytes(), b.Bytes())
		}
	}

	// Summary invariants.
	s := br.Summary
	if s.Variants != 5 || s.Distinct != 5 || s.Failed != 0 || s.BaselineIndex != 0 {
		t.Errorf("summary counts = %+v, want 5 variants, 5 distinct, 0 failed, baseline 0", s)
	}
	if len(s.Ranking) != 5 {
		t.Fatalf("ranking has %d rows, want 5", len(s.Ranking))
	}
	for i := 1; i < len(s.Ranking); i++ {
		if s.Ranking[i].MeanMakespan < s.Ranking[i-1].MeanMakespan {
			t.Errorf("ranking not sorted: row %d (%v) faster than row %d (%v)",
				i, s.Ranking[i].MeanMakespan, i-1, s.Ranking[i-1].MeanMakespan)
		}
	}
	// The baseline row measures 0% delta and 1x speedup against itself.
	for _, row := range s.Ranking {
		if row.Index == 0 && (row.DeltaVsBaselinePct != 0 || row.SpeedupVsBaseline != 1) {
			t.Errorf("baseline row = %+v, want delta 0 / speedup 1", row)
		}
	}
	// Variants 0-2 share a scenario (policy sweep under identical
	// conditions); the override and straggler variants are their own.
	if len(s.Scenarios) != 3 {
		t.Fatalf("scenarios = %+v, want 3 groups", s.Scenarios)
	}
	first := s.Scenarios[0]
	if len(first.Variants) != 3 || first.Scenario != "baseline" {
		t.Errorf("first scenario = %+v, want variants [0 1 2] named after its first label", first)
	}
	if first.BestPolicy == "none" {
		t.Error("unscheduled baseline won its scenario over tic and critical-path")
	}
	best := -1
	for _, i := range first.Variants {
		if best < 0 || brMean(t, br, i) < brMean(t, br, best) {
			best = i
		}
	}
	if first.BestIndex != best {
		t.Errorf("scenario best index = %d, want %d", first.BestIndex, best)
	}
}

// brMean extracts a variant's mean makespan from its payload.
func brMean(t *testing.T, br BatchResponse, i int) float64 {
	t.Helper()
	var r SimulateResult
	if err := json.Unmarshal(br.Variants[i].Result, &r); err != nil {
		t.Fatal(err)
	}
	return r.MeanMakespan
}

// TestBatchAmortizesSharedState is the acceptance-criteria assertion: a
// batch of N variants over one graph performs exactly 1 graph parse (one
// cluster build), derives override platforms from it without re-parsing,
// and coalesces duplicate variants onto one computation.
func TestBatchAmortizesSharedState(t *testing.T) {
	svc, ts := newTestServer(t, Options{})
	base := WorkloadSpec{Model: "AlexNet v2", Workers: 2, PS: 1, Seed: 5, MeasureIterations: 3}
	req := BatchRequest{
		Workload: &base,
		Variants: []BatchVariant{
			{Policy: strp("tic")},
			{Policy: strp("critical-path")},
			{Policy: strp("none")},
			{Policy: strp("tic")}, // duplicate: must coalesce
			{Policy: strp("tic"), Overrides: &PlatformOverrides{
				Devices: map[string]DeviceOverride{"worker:0": {SlowCompute: 1.5}},
			}},
			{Policy: strp("tic"), // same schedule as variant 0, new run windows
				Stragglers: &[]StragglerSpec{{Worker: 1, Factor: 2, From: 0, Until: 2}}},
		},
	}
	resp, payload, br := postBatch(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, payload)
	}
	for i, vr := range br.Variants {
		if vr.Error != nil {
			t.Fatalf("variant %d failed: %+v", i, vr.Error)
		}
	}

	// Exactly one graph parse for the whole batch.
	clusters, schedules := svc.BuildCounts()
	if clusters != 1 {
		t.Errorf("cluster builds = %d, want exactly 1 graph parse for the batch", clusters)
	}
	// One derived (override) cluster, built from the base without a parse.
	if d := svc.DerivedClusterCount(); d != 1 {
		t.Errorf("derived clusters = %d, want 1 (the override variant)", d)
	}
	// One schedule build per distinct (platform, policy): tic, critical-path
	// and none on the base platform plus tic on the override platform. The
	// duplicate coalesces; the straggler variant reuses variant 0's schedule.
	if schedules != 4 {
		t.Errorf("schedule builds = %d, want 4 distinct (platform, policy) slots", schedules)
	}
	if br.Summary.Distinct != 5 {
		t.Errorf("summary distinct = %d, want 5 (duplicate deduped)", br.Summary.Distinct)
	}
}

// TestBatchDeterministicAtAnyPoolWidth locks the bit-identical contract:
// the same batch request must produce byte-identical response bodies at
// every worker-pool width.
func TestBatchDeterministicAtAnyPoolWidth(t *testing.T) {
	base := WorkloadSpec{Model: "Inception v1", Workers: 3, PS: 2, Seed: 2, MeasureIterations: 3}
	req := BatchRequest{Workload: &base}
	policies := []string{"none", "tic", "critical-path", "tac"}
	for i := 0; i < 12; i++ {
		v := BatchVariant{Policy: strp(policies[i%len(policies)]), Seed: i64p(int64(2 + i/4))}
		if i%5 == 3 {
			v.Overrides = &PlatformOverrides{Devices: map[string]DeviceOverride{
				"worker:1": {SlowCompute: 1.5 + float64(i%3)},
			}}
		}
		if i%4 == 2 {
			v.Jitter = f64p(0.08)
			v.ReorderProb = f64p(0.3)
		}
		req.Variants = append(req.Variants, v)
	}

	var reference []byte
	for _, jobs := range []int{1, 2, 7} {
		_, ts := newTestServer(t, Options{BatchJobs: jobs})
		resp, payload := post(t, ts.URL+"/v1/batch", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("jobs=%d: status %d: %s", jobs, resp.StatusCode, payload)
		}
		if reference == nil {
			reference = payload
			continue
		}
		if !bytes.Equal(payload, reference) {
			t.Errorf("jobs=%d: batch response differs from jobs=1 response", jobs)
		}
	}
}

func TestBatchEdgeCases(t *testing.T) {
	t.Run("empty variant list", func(t *testing.T) {
		_, ts := newTestServer(t, Options{})
		resp, payload := post(t, ts.URL+"/v1/batch", BatchRequest{Workload: &WorkloadSpec{Model: "AlexNet v2"}})
		var e ErrorResponse
		if err := json.Unmarshal(payload, &e); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || e.Error.Code != CodeBadRequest {
			t.Errorf("got %d/%s, want 400/%s", resp.StatusCode, e.Error.Code, CodeBadRequest)
		}
	})

	t.Run("unknown policy mid-batch", func(t *testing.T) {
		_, ts := newTestServer(t, Options{})
		req := BatchRequest{
			Workload: &WorkloadSpec{Model: "AlexNet v2", Workers: 2, MeasureIterations: 2},
			Variants: []BatchVariant{
				{Policy: strp("tic")},
				{Policy: strp("quantum-annealing")},
				{Policy: strp("critical-path")},
			},
		}
		resp, payload, br := postBatch(t, ts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("a bad variant failed the whole batch: %d %s", resp.StatusCode, payload)
		}
		if br.Variants[0].Error != nil || br.Variants[2].Error != nil {
			t.Errorf("healthy variants failed: %+v", br.Variants)
		}
		bad := br.Variants[1]
		if bad.Error == nil || bad.Error.Code != CodeUnknownPolicy || bad.Result != nil {
			t.Errorf("variant 1 = %+v, want %s error and no result", bad, CodeUnknownPolicy)
		}
		if br.Summary.Failed != 1 || br.Summary.BaselineIndex != 0 || len(br.Summary.Ranking) != 2 {
			t.Errorf("summary = %+v, want 1 failed, baseline 0, 2 ranked", br.Summary)
		}
	})

	t.Run("batch too large", func(t *testing.T) {
		_, ts := newTestServer(t, Options{MaxBatch: 4})
		req := BatchRequest{Workload: &WorkloadSpec{Model: "AlexNet v2"}}
		req.Variants = make([]BatchVariant, 5)
		resp, payload := post(t, ts.URL+"/v1/batch", req)
		var e ErrorResponse
		if err := json.Unmarshal(payload, &e); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge || e.Error.Code != CodeBatchTooLarge {
			t.Errorf("got %d/%s, want 413/%s", resp.StatusCode, e.Error.Code, CodeBatchTooLarge)
		}
	})

	t.Run("graph fields are not variant-addressable", func(t *testing.T) {
		_, ts := newTestServer(t, Options{})
		body := `{"workload": {"model": "AlexNet v2"}, "variants": [{"workers": 4}]}`
		resp, payload := post(t, ts.URL+"/v1/batch", json.RawMessage(body))
		var e ErrorResponse
		if err := json.Unmarshal(payload, &e); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || e.Error.Code != CodeBadRequest {
			t.Errorf("got %d/%s, want 400/%s (unknown variant field)", resp.StatusCode, e.Error.Code, CodeBadRequest)
		}
	})

	t.Run("invalid base spec", func(t *testing.T) {
		_, ts := newTestServer(t, Options{})
		req := BatchRequest{
			Workload: &WorkloadSpec{Model: "NoSuchNet"},
			Variants: []BatchVariant{{Policy: strp("tic")}},
		}
		resp, payload := post(t, ts.URL+"/v1/batch", req)
		var e ErrorResponse
		if err := json.Unmarshal(payload, &e); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || e.Error.Code != CodeUnknownModel {
			t.Errorf("got %d/%s, want 400/%s", resp.StatusCode, e.Error.Code, CodeUnknownModel)
		}
	})
}

// TestBatchConcurrent slams one service with identical and distinct batches
// from many goroutines (run under -race by the race gate): every identical
// request must return byte-identical bodies, and the shared graph must
// still be parsed exactly once.
func TestBatchConcurrent(t *testing.T) {
	svc, ts := newTestServer(t, Options{})
	base := WorkloadSpec{Model: "AlexNet v2", Workers: 2, PS: 1, Seed: 3, MeasureIterations: 2}
	mk := func(seed int64) BatchRequest {
		return BatchRequest{
			Workload: &base,
			Variants: []BatchVariant{
				{Policy: strp("tic"), Seed: i64p(seed)},
				{Policy: strp("none"), Seed: i64p(seed)},
				{Policy: strp("tic"), Seed: i64p(seed), Overrides: &PlatformOverrides{
					Devices: map[string]DeviceOverride{"ps:0": {SlowNet: 2}},
				}},
			},
		}
	}

	const n = 12
	payloads := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(mk(int64(3 + i%3)))
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, buf.Bytes())
				return
			}
			payloads[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()

	for i := 3; i < n; i++ {
		if !bytes.Equal(payloads[i], payloads[i%3]) {
			t.Errorf("identical concurrent batches %d and %d returned different bodies", i, i%3)
		}
	}
	if clusters, _ := svc.BuildCounts(); clusters != 1 {
		t.Errorf("cluster builds = %d, want 1 across all concurrent batches", clusters)
	}
}
