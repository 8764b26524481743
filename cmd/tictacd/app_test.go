package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tictac/internal/fleet"
	"tictac/internal/service"
	"tictac/internal/trace"
)

func TestLoadtestInProcess(t *testing.T) {
	report := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-loadtest",
		"-requests", "20",
		"-concurrency", "4",
		"-models", "AlexNet v2",
		"-policies", "tic",
		"-report", report,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "PASS") {
		t.Errorf("stderr missing PASS: %s", stderr.String())
	}
	payload, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var r service.LoadReport
	if err := json.Unmarshal(payload, &r); err != nil {
		t.Fatalf("report not JSON: %v\n%s", err, payload)
	}
	if r.Requests != 20 || r.DistinctConfigs != 1 || r.Mismatches != 0 {
		t.Errorf("report = %+v", r)
	}
	// stdout carries the same report for pipelines.
	var viaStdout service.LoadReport
	if err := json.Unmarshal(stdout.Bytes(), &viaStdout); err != nil {
		t.Errorf("stdout not a JSON report: %v", err)
	}
}

// TestServerTimeoutsDropSlowClient pins the hardened server config: a
// client that sends its headers and then stalls mid-body is disconnected by
// ReadTimeout instead of holding a serving goroutine for as long as it
// pleases.
func TestServerTimeoutsDropSlowClient(t *testing.T) {
	a, err := parseFlags([]string{
		"-read-timeout", "150ms",
		"-write-timeout", "150ms",
		"-idle-timeout", "150ms",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	srv := a.httpServer(service.New(a.options()).Handler())
	if srv.ReadTimeout != 150*time.Millisecond || srv.WriteTimeout != 150*time.Millisecond ||
		srv.IdleTimeout != 150*time.Millisecond || srv.ReadHeaderTimeout == 0 {
		t.Fatalf("server timeouts not wired: %+v", srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Headers promise a 100-byte body that never arrives.
	if _, err := io.WriteString(conn,
		"POST /v1/schedule HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 512)
	if _, err := conn.Read(buf); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("server kept the stalled connection open past its ReadTimeout")
		}
		// Closed without a response: the read deadline fired. Good.
	}
	// A well-behaved client on the same server still gets served.
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatalf("healthy request after slow client: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d after slow client", resp.StatusCode)
	}
}

func TestDefaultTimeoutsNonZero(t *testing.T) {
	a, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if a.readTimeout <= 0 || a.writeTimeout <= 0 || a.idleTimeout <= 0 {
		t.Fatalf("default timeouts = %v/%v/%v, want all > 0", a.readTimeout, a.writeTimeout, a.idleTimeout)
	}
}

func TestBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "no-such-flag") {
		t.Errorf("stderr missing flag error: %s", stderr.String())
	}
}

func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h exit code %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "loadtest") {
		t.Errorf("usage text missing: %s", stderr.String())
	}
}

func TestBadCachePolicy(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-cache-policy", "astrology"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "astrology") {
		t.Errorf("stderr missing policy error: %s", stderr.String())
	}
}

func TestTraceReplayInProcess(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "t.trace.json")
	w, err := trace.Generate(trace.GeneratorSpec{
		Kind: trace.GenZipf, Seed: 3, Events: 40, Configs: 6, Models: []string{"AlexNet v2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteWorkloadFile(tracePath, w); err != nil {
		t.Fatal(err)
	}
	report := filepath.Join(t.TempDir(), "replay.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-loadtest",
		"-trace", tracePath,
		"-cache-policy", "lfu",
		"-cache-capacity", "3",
		"-shards", "1",
		"-batches", "-1",
		"-churn-probes", "-1",
		"-report", report,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "PASS") {
		t.Errorf("stderr missing PASS: %s", stderr.String())
	}
	payload, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var r service.LoadReport
	if err := json.Unmarshal(payload, &r); err != nil {
		t.Fatalf("report not JSON: %v\n%s", err, payload)
	}
	if r.Requests != 40 || r.Trace != w.Name || r.ServerCachePolicy != "lfu" || r.Mismatches != 0 {
		t.Errorf("report = %+v", r)
	}
	// The self-hosted server's one 3-entry shard cannot hold the trace's keys.
	if r.ServerScheduleEvictions == 0 || r.ServerCacheHitRate <= 0 {
		t.Errorf("evictions %d, hit rate %v: want both > 0", r.ServerScheduleEvictions, r.ServerCacheHitRate)
	}

	stderr.Reset()
	if code := run([]string{"-loadtest", "-trace", filepath.Join(t.TempDir(), "missing.json")}, &stdout, &stderr); code != 1 {
		t.Errorf("missing trace: exit code %d, want 1 (stderr: %s)", code, stderr.String())
	}
}

func TestParsePeers(t *testing.T) {
	members, err := parsePeers("a=http://10.0.0.1:8080, b=http://10.0.0.2:8080/")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 2 || members[0].ID != "a" || members[1].URL != "http://10.0.0.2:8080" {
		t.Fatalf("parsed %+v", members)
	}
	for _, bad := range []string{"", "a", "=http://x", "a=", "a=u,b"} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("parsePeers(%q) accepted", bad)
		}
	}
}

func TestFleetFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-fleet"},                  // no node-id
		{"-fleet", "-node-id", "a"}, // no peers
		{"-fleet", "-node-id", "a", "-peers", "b=http://x,c=http://y"}, // self missing
		{"-fleet", "-node-id", "a", "-peers", "a=http://x"},            // single member
		{"-fleet", "-node-id", "a", "-peers", "garbage"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) exit %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
	}
}

func TestFleetLoadtestThroughDaemons(t *testing.T) {
	// Two real fleet members over loopback, then the cmd-level loadtest
	// driven through both with -fleet-targets.
	lns := make([]net.Listener, 2)
	members := make([]fleet.Member, 2)
	ids := []string{"n0", "n1"}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		members[i] = fleet.Member{ID: ids[i], URL: "http://" + ln.Addr().String()}
	}
	for i, ln := range lns {
		node, err := fleet.NewNode(fleet.Config{Self: ids[i], Members: members})
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: service.New(service.Options{Fleet: node}).Handler()}
		go srv.Serve(ln)
		defer srv.Close()
	}

	report := filepath.Join(t.TempDir(), "fleet.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-loadtest",
		"-fleet-targets", members[0].URL + "," + members[1].URL,
		"-requests", "30",
		"-concurrency", "4",
		"-models", "AlexNet v2",
		"-policies", "tic",
		"-report", report,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	payload, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var r service.LoadReport
	if err := json.Unmarshal(payload, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.FleetTargets) != 2 {
		t.Errorf("report fleet_targets = %v, want both nodes", r.FleetTargets)
	}
	if r.Mismatches != 0 || r.Failures != 0 {
		t.Errorf("fleet loadtest saw %d mismatches, %d failures", r.Mismatches, r.Failures)
	}
	if len(r.PerNode) != 2 {
		t.Errorf("per-node stats for %d nodes, want 2", len(r.PerNode))
	}
}
