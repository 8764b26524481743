package sim_test

// Tests for what a long-lived Runner keeps between runs: RunInto refills
// one caller-owned Result bit-identically to the frozen reference engine,
// whatever the previous run was, and the Runner holds on to no schedule it
// has run.

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"weak"

	"tictac/internal/cluster"
	"tictac/internal/core"
	"tictac/internal/graph"
	"tictac/internal/sim"
	"tictac/internal/sim/simref"
	"tictac/internal/timing"
)

// runDistinctSchedules runs n distinct random schedules through r and
// returns only weak pointers to them, so nothing on the caller's stack
// keeps a schedule alive.
func runDistinctSchedules(t *testing.T, c *cluster.Cluster, r *sim.Runner, n int) []weak.Pointer[core.Schedule] {
	t.Helper()
	oracle := c.Config.Platform.Oracle()
	ws := make([]weak.Pointer[core.Schedule], 0, n)
	for i := 0; i < n; i++ {
		s, err := c.ComputeSchedule("random", 0, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 2; seed++ { // a second run hits the memo
			if _, err := r.Run(sim.Config{Oracle: oracle, Schedule: s, Seed: seed}); err != nil {
				t.Fatal(err)
			}
		}
		ws = append(ws, weak.Make(s))
	}
	return ws
}

// TestRunnerDoesNotPinSchedules: a Runner outlives the schedules run
// through it (a cached cluster serves many requests), so it must not keep
// them reachable. Once dropped by their callers and collected, every one
// of them is gone although the Runner is still alive and usable.
func TestRunnerDoesNotPinSchedules(t *testing.T) {
	c := parityCluster(t, "AlexNet v2", 2, 1)
	r, err := sim.NewRunner(c.Graph)
	if err != nil {
		t.Fatal(err)
	}
	ws := runDistinctSchedules(t, c, r, 8)
	runtime.GC()
	runtime.GC()
	for i, w := range ws {
		if w.Value() != nil {
			t.Fatalf("schedule %d of %d survived collection: the Runner pins the schedules it ran", i, len(ws))
		}
	}
	if _, err := r.Run(sim.Config{Oracle: c.Config.Platform.Oracle(), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(r)
}

// mustEqualTraces compares two tracers' samples bit for bit.
func mustEqualTraces(t *testing.T, label string, want, got *timing.Tracer) {
	t.Helper()
	if !slices.Equal(want.Ops(), got.Ops()) {
		t.Fatalf("%s: traced ops differ (%d vs %d)", label, len(got.Ops()), len(want.Ops()))
	}
	for _, name := range want.Ops() {
		w, g := want.Samples(name), got.Samples(name)
		if len(w) != len(g) {
			t.Fatalf("%s: %s has %d samples, want %d", label, name, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(w[i]) != math.Float64bits(g[i]) {
				t.Fatalf("%s: %s sample %d: %v != %v", label, name, i, g[i], w[i])
			}
		}
	}
}

// TestRunIntoReuseParity drives one Result through RunInto across two
// models' graphs (different op counts, devices and resources), nil and TIC
// schedules, a tabulated oracle, cost scaling, masking and tracing, twice
// over. Every refill must equal the frozen reference engine bit for bit —
// nothing of the previous run may survive the reset. Masked runs, which
// the reference engine predates, are compared with a fresh Runner's Run.
func TestRunIntoReuseParity(t *testing.T) {
	clusters := []*cluster.Cluster{
		parityCluster(t, "AlexNet v2", 2, 1),
		parityCluster(t, "Inception v1", 3, 2),
	}
	runners := make([]*sim.Runner, len(clusters))
	scheds := make([]*core.Schedule, len(clusters))
	for i, c := range clusters {
		var err error
		if runners[i], err = sim.NewRunner(c.Graph); err != nil {
			t.Fatal(err)
		}
		if scheds[i], err = c.ComputeSchedule("tic", 2, 1); err != nil {
			t.Fatal(err)
		}
	}
	netScale := func(op *graph.Op) float64 {
		if op.Kind == graph.Recv || op.Kind == graph.Send {
			return 2.5
		}
		return 1
	}
	maskWorker1 := func(op *graph.Op) bool { return op.Device == cluster.WorkerDevice(1) }

	var res sim.Result
	for round := 0; round < 2; round++ {
		for i, c := range clusters {
			r, s := runners[i], scheds[i]
			oracle := c.Config.Platform.Oracle()
			table := timing.Tabulate(c.Graph, oracle)
			jitter := c.Config.Platform.Jitter
			cases := []struct {
				label string
				cfg   sim.Config
			}{
				{"baseline", sim.Config{Oracle: oracle, Seed: 7}},
				{"tic+jitter+reorder", sim.Config{Oracle: oracle, Schedule: s, Seed: 11, Jitter: jitter, ReorderProb: 0.2}},
				{"table", sim.Config{Oracle: table, Schedule: s, Seed: 13, Jitter: jitter}},
				{"costscale", sim.Config{Oracle: table, Seed: 3, Jitter: 0.1, CostScale: netScale}},
			}
			for _, tc := range cases {
				label := c.Config.Model.Name + "/" + tc.label
				ref := tc.cfg
				ref.Oracle = oracle // the reference engine always calls the cost model
				want, err := simref.Run(c.Graph, ref)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.RunInto(tc.cfg, &res); err != nil {
					t.Fatal(err)
				}
				mustEqualResults(t, label, want, &res)
			}

			wantTr, gotTr := timing.NewTracer(), timing.NewTracer()
			want, err := simref.Run(c.Graph, sim.Config{Oracle: oracle, Schedule: s, Seed: 17, Jitter: jitter, Tracer: wantTr})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.RunInto(sim.Config{Oracle: table, Schedule: s, Seed: 17, Jitter: jitter, Tracer: gotTr}, &res); err != nil {
				t.Fatal(err)
			}
			mustEqualResults(t, c.Config.Model.Name+"/tracer", want, &res)
			mustEqualTraces(t, c.Config.Model.Name+"/tracer", wantTr, gotTr)

			masked := sim.Config{Oracle: oracle, Schedule: s, Seed: 19, Jitter: jitter, Disabled: maskWorker1}
			want, err = sim.Run(c.Graph, masked)
			if err != nil {
				t.Fatal(err)
			}
			masked.Oracle = table
			if err := r.RunInto(masked, &res); err != nil {
				t.Fatal(err)
			}
			mustEqualResults(t, c.Config.Model.Name+"/disabled", want, &res)
		}
	}
}

// TestRunIntoKeepsEarlierRecvOrders: the recv-order slices are the one
// part of a Result a refill does not recycle, so a slice kept from an
// earlier run still reads that run's order after later runs.
func TestRunIntoKeepsEarlierRecvOrders(t *testing.T) {
	c := parityCluster(t, "AlexNet v2", 2, 1)
	r, err := sim.NewRunner(c.Graph)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Oracle: c.Config.Platform.Oracle(), Seed: 1}
	var res sim.Result
	if err := r.RunInto(cfg, &res); err != nil {
		t.Fatal(err)
	}
	dev := cluster.WorkerDevice(0)
	kept := res.RecvStartOrder[dev]
	snapshot := slices.Clone(kept)
	for seed := int64(2); seed < 6; seed++ {
		cfg.Seed = seed
		if err := r.RunInto(cfg, &res); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(kept, snapshot) {
		t.Fatal("a recv order kept from an earlier run was overwritten by a later RunInto")
	}
}

// TestRunRecompilesAfterGraphChange: the one-shot Run compiles the
// schedule against the graph as it is at each call, so a graph edited
// between two calls with the same schedule is simulated as edited — an
// added op gets its priority, and nothing indexes past a stale table.
func TestRunRecompilesAfterGraphChange(t *testing.T) {
	const dev = "worker:0"
	g := graph.New()
	addRecv := func(name string) *graph.Op {
		op := g.MustAddOp(name, graph.Recv)
		op.Device, op.Resource, op.Param, op.Bytes = dev, dev+"/net:ps:0", name, 1
		return op
	}
	addComp := func(name string, in ...*graph.Op) {
		op := g.MustAddOp(name, graph.Compute)
		op.Device, op.Resource = dev, dev+"/compute"
		for _, from := range in {
			g.MustConnect(from, op)
		}
	}
	r1, r2 := addRecv("recv1"), addRecv("recv2")
	addComp("op1", r1)
	addComp("op2", r1, r2)
	order := []string{"recv3", "recv2", "recv1"}
	s := &core.Schedule{Algorithm: core.AlgoTIC, Rank: map[string]int{}, Order: order}
	for i, k := range order {
		s.Rank[k] = i
	}
	cfg := sim.Config{Oracle: timing.OracleFunc(func(op *graph.Op) float64 { return float64(op.ID + 1) }), Schedule: s, Seed: 3}

	var got *sim.Result
	for _, step := range []string{"before", "after"} {
		if step == "after" {
			addComp("op3", addRecv("recv3"))
		}
		want, err := simref.Run(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, err = sim.Run(g, cfg); err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, step, want, got)
	}
	if first := got.RecvStartOrder[dev][0]; first != "recv3" {
		t.Fatalf("first recv after the edit = %s, want the added recv3 (rank 0)", first)
	}
}
