package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"
)

// BenchmarkFleetForward measures a warm schedule request through a 2-node
// fleet: "local" posts to the key's home node (no fleet hop), "forwarded"
// posts to the other node so every request crosses the forwarding path
// (ownership lookup, proxied HTTP round trip, verbatim relay). Both serve
// from the owner's cache, so the delta is pure forwarding overhead.
// `make perf` records requests/sec per variant in BENCH_sim.json.
func BenchmarkFleetForward(b *testing.B) {
	nodes := startTestFleet(b, 2)
	spec := specOwnedBy(b, nodes, 1, nil)
	body, err := json.Marshal(ScheduleRequest{Workload: &spec})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the owner's cache so both variants measure the serving path,
	// not the one-time schedule build.
	if status, _, raw := postScheduleTo(b, nodes[1].url, spec, nil); status != http.StatusOK {
		b.Fatalf("warm: status %d: %s", status, raw)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	for _, v := range []struct {
		name string
		url  string
	}{
		{"local", nodes[1].url},
		{"forwarded", nodes[0].url},
	} {
		b.Run(fmt.Sprintf("AlexNet_v2/%s", v.name), func(b *testing.B) {
			b.ReportAllocs()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				resp, err := client.Post(v.url+"/v1/schedule", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "requests/sec")
		})
	}
}
