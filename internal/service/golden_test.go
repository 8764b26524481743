package service

import (
	"bytes"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden response testdata")

// TestResponseBytesGolden pins the exact response bytes of every POST
// workload endpoint: a /v1/schedule miss and its hit, a /v1/simulate with
// stragglers and membership events, and a /v1/batch carrying a policy
// sweep, a duplicate and a straggler scenario. The loadtest compares the
// server against a direct call through the same code, so only a committed
// golden catches a change to the wire form itself (a reordered or renamed
// field). Regenerate with `go test ./internal/service/ -run Golden -update`.
func TestResponseBytesGolden(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	sched := WorkloadSpec{Model: "AlexNet v2", Policy: "tic", Workers: 2, PS: 1, Seed: 11}
	churn := WorkloadSpec{
		Model:             "AlexNet v2",
		Policy:            "critical-path",
		Workers:           3,
		PS:                2,
		Seed:              5,
		MeasureIterations: 4,
		Stragglers:        []StragglerSpec{{Worker: 0, Factor: 2, From: 1, Until: 3}},
		Membership: []MembershipEventSpec{
			{Kind: "worker_fail", Worker: 2, Iteration: 1},
			{Kind: "ps_shard_fail", PS: 1, Iteration: 2},
			{Kind: "worker_join", Worker: 2, Iteration: 3},
		},
	}
	batch := loadBatchRequest(LoadOptions{Models: []string{"AlexNet v2"}, Policies: []string{"tic", "critical-path"}, Seed: 7}, 0)

	for _, tc := range []struct {
		name, path string
		body       any
	}{
		{"schedule_miss", "/v1/schedule", ScheduleRequest{Workload: &sched}},
		{"schedule_hit", "/v1/schedule", ScheduleRequest{Workload: &sched}},
		{"simulate_churn", "/v1/simulate", ScheduleRequest{Workload: &churn}},
		{"batch", "/v1/batch", batch},
	} {
		resp, got := post(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, resp.StatusCode, got)
		}
		path := filepath.Join("testdata", tc.name+".golden.json")
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to regenerate)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: response bytes diverge from %s (run with -update if intended):\ngot:\n%s\nwant:\n%s", tc.name, path, got, want)
		}
	}
}
