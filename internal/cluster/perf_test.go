package cluster

// Parity tests pinning the cluster layer's refactored hot path — shared
// sim.Runner, ID-indexed efficiency — to the pre-refactor semantics, plus
// the allocation pin and the BenchmarkClusterRun/BenchmarkClusterChurn
// microbenchmarks (pprof entry points; see docs/performance.md).

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"tictac/internal/core"
	"tictac/internal/graph"
	"tictac/internal/model"
	"tictac/internal/sim"
	"tictac/internal/sim/simref"
	"tictac/internal/timing"
)

// refIterationEfficiency recomputes the efficiency metric exactly the way
// the pre-refactor code did: trim the worker prefix off every span name
// into a string-keyed duration map and rebuild the reference partition.
func refIterationEfficiency(c *Cluster, res *sim.Result) float64 {
	prefix := c.refPrefix()
	measured := make(map[string]float64)
	var start, end float64
	first := true
	for _, sp := range res.Spans {
		if sp.Op.Device != WorkerDevice(0) {
			continue
		}
		name := sp.Op.Name
		if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
			continue
		}
		name = name[len(prefix):]
		measured[name] = sp.End - sp.Start
		if first || sp.Start < start {
			start = sp.Start
			first = false
		}
		if sp.End > end {
			end = sp.End
		}
	}
	ref := c.ReferenceWorker()
	oracle := timing.OracleFunc(func(op *graph.Op) float64 { return measured[op.Name] })
	return core.Efficiency(ref, oracle, end-start)
}

// TestIterationEfficiencyParity pins the ID-indexed efficiency rewrite to
// the name-keyed original, bit for bit, on single- and multi-iteration
// (chained) graphs.
func TestIterationEfficiencyParity(t *testing.T) {
	spec, _ := model.ByName("AlexNet v2")
	for _, iters := range []int{1, 2} {
		c, err := Build(Config{
			Model:      spec,
			Mode:       model.Training,
			Workers:    2,
			PS:         1,
			Platform:   timing.EnvG(),
			Iterations: iters,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := c.ComputeSchedule("tic", 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 3; seed++ {
			res, err := simref.Run(c.Graph, sim.Config{
				Oracle:   c.oracle(),
				Schedule: s,
				Seed:     seed,
				Jitter:   c.Config.Platform.Jitter,
			})
			if err != nil {
				t.Fatal(err)
			}
			want := refIterationEfficiency(c, res)
			got := c.iterationEfficiency(res)
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("iters=%d seed=%d: efficiency %v != %v", iters, seed, got, want)
			}
		}
	}
}

// TestRunIterationParityWithFrozenSim replays RunIteration's exact
// simulator configuration through the frozen reference engine and checks
// every Iteration field the experiments consume — the cluster-level
// counterpart of the sim parity suite.
func TestRunIterationParityWithFrozenSim(t *testing.T) {
	spec, _ := model.ByName("Inception v1")
	c, err := Build(Config{
		Model:    spec,
		Mode:     model.Training,
		Workers:  3,
		PS:       2,
		Platform: timing.EnvG(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.ComputeSchedule("tic", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed < 4; seed++ {
		opts := RunOptions{Schedule: s, Seed: seed, Jitter: -1, ReorderProb: 0.01}
		it, err := c.RunIteration(opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := simref.Run(c.Graph, sim.Config{
			Oracle:      c.oracle(),
			Schedule:    opts.Schedule,
			Seed:        opts.Seed,
			Jitter:      c.Config.Platform.Jitter,
			ReorderProb: opts.ReorderProb,
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(it.Makespan) != math.Float64bits(res.Makespan) {
			t.Fatalf("seed %d: makespan %v != %v", seed, it.Makespan, res.Makespan)
		}
		if it.ReorderEvents != res.ReorderEvents {
			t.Fatalf("seed %d: reorder events %d != %d", seed, it.ReorderEvents, res.ReorderEvents)
		}
		wantOrder := res.RecvStartOrder[WorkerDevice(0)]
		if len(it.RecvOrder) != len(wantOrder) {
			t.Fatalf("seed %d: recv order length %d != %d", seed, len(it.RecvOrder), len(wantOrder))
		}
		for i := range wantOrder {
			if it.RecvOrder[i] != wantOrder[i] {
				t.Fatalf("seed %d: recv order differs at %d", seed, i)
			}
		}
		if len(it.WorkerFinish) != c.Config.Workers {
			t.Fatalf("seed %d: %d worker finishes", seed, len(it.WorkerFinish))
		}
		for w, f := range it.WorkerFinish {
			if math.Float64bits(f) != math.Float64bits(res.DeviceFinish[WorkerDevice(w)]) {
				t.Fatalf("seed %d: worker %d finish %v != %v", seed, w, f, res.DeviceFinish[WorkerDevice(w)])
			}
		}
		if want := refIterationEfficiency(c, res); math.Float64bits(it.Efficiency) != math.Float64bits(want) {
			t.Fatalf("seed %d: efficiency %v != %v", seed, it.Efficiency, want)
		}
	}
}

// TestRunRecvOrdersMatchFreshIterations: Run refills one pooled Result
// across its iterations, but every reported iteration's recv order must be
// exactly what a fresh RunIteration at that iteration's seed and index
// returns, and no two iterations may share a backing array — on the plain
// path and under a mid-run worker failure (the churn path, which runs the
// aborted attempt through the same Result first).
func TestRunRecvOrdersMatchFreshIterations(t *testing.T) {
	spec, _ := model.ByName("AlexNet v2")
	c, err := Build(Config{Model: spec, Mode: model.Training, Workers: 3, PS: 2, Platform: timing.EnvG()})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.ComputeSchedule("tic", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	exp := Experiment{Warmup: 2, Measure: 5}
	for _, tc := range []struct {
		label  string
		events []MembershipEvent
	}{
		{"plain", nil},
		{"churn", []MembershipEvent{{Kind: WorkerFail, Worker: 2, Iteration: 3}, {Kind: WorkerJoin, Worker: 2, Iteration: 5}}},
	} {
		opts := RunOptions{Schedule: s, Seed: 9, Jitter: -1, ReorderProb: 0.05, Events: tc.events}
		out, err := c.Run(exp, opts)
		if err != nil {
			t.Fatal(err)
		}
		for k, it := range out.Iterations {
			i := exp.Warmup + k
			fresh := opts
			fresh.Seed = opts.Seed + int64(i)*7919
			fresh.Iteration = i
			want, err := c.RunIteration(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if len(it.RecvOrder) == 0 || !slices.Equal(it.RecvOrder, want.RecvOrder) {
				t.Fatalf("%s: iteration %d recv order differs from a fresh RunIteration", tc.label, i)
			}
		}
		// Stamp each iteration's first key; a shared backing would let a
		// later stamp overwrite an earlier one.
		for k := range out.Iterations {
			out.Iterations[k].RecvOrder[0] = fmt.Sprint("stamp-", k)
		}
		for k, it := range out.Iterations {
			if got := it.RecvOrder[0]; got != fmt.Sprint("stamp-", k) {
				t.Fatalf("%s: iteration %d shares its recv-order backing (reads %q)", tc.label, k, got)
			}
		}
	}
}

// TestRunAllocsPerExperiment pins Run's allocations for the benchmark
// configuration (AlexNet v2, 4 workers, TIC, 2 warmup + 10 measured
// iterations). Spans are no longer reallocated per iteration: one pooled
// sim.Result is refilled by all twelve runs, the cost model is a table
// built once per cluster and the efficiency metric's duration table is
// pooled too. What is left is per-iteration bookkeeping — the Iteration,
// its worker finishes, the run's recv-order keys, the bounds map. Measured
// at 138; a fresh duration table per iteration measured 150 and a fresh
// Result per run 234.
func TestRunAllocsPerExperiment(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	spec, _ := model.ByName("AlexNet v2")
	c, err := Build(Config{Model: spec, Mode: model.Training, Workers: 4, PS: 1, Platform: timing.EnvG()})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.ComputeSchedule("tic", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	exp := Experiment{Warmup: 2, Measure: 10}
	opts := RunOptions{Schedule: s, Seed: 1, Jitter: -1}
	if _, err := c.Run(exp, opts); err != nil { // warm the pools and the memo
		t.Fatal(err)
	}
	const budget = 138
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.Run(exp, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("Run allocates %.0f objects per experiment, want <= %d", allocs, budget)
	}
}

// benchClusterModels is the cluster-protocol benchmark model set.
var benchClusterModels = []string{"AlexNet v2", "Inception v2"}

// BenchmarkClusterRun measures the full warmup+measure protocol (the unit
// of work every bench experiment point executes) with the per-Cluster
// Runner and schedule reuse in steady state.
func BenchmarkClusterRun(b *testing.B) {
	for _, name := range benchClusterModels {
		spec, ok := model.ByName(name)
		if !ok {
			b.Fatalf("model %q missing from catalog", name)
		}
		c, err := Build(Config{
			Model:    spec,
			Mode:     model.Training,
			Workers:  4,
			PS:       1,
			Platform: timing.EnvG(),
		})
		if err != nil {
			b.Fatal(err)
		}
		s, err := c.ComputeSchedule("tic", 2, 1)
		if err != nil {
			b.Fatal(err)
		}
		exp := Experiment{Warmup: 2, Measure: 10}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Run(exp, RunOptions{Schedule: s, Seed: 1, Jitter: -1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterChurn measures the same protocol under a worst-case
// membership-event mix (a mid-iteration worker fail with rejoin plus a PS
// shard fail/recover pair), isolating the overhead of the timeline
// resolution, the aborted-attempt re-simulation and the masked runs.
func BenchmarkClusterChurn(b *testing.B) {
	for _, name := range benchClusterModels {
		spec, ok := model.ByName(name)
		if !ok {
			b.Fatalf("model %q missing from catalog", name)
		}
		c, err := Build(Config{
			Model:    spec,
			Mode:     model.Training,
			Workers:  4,
			PS:       2,
			Platform: timing.EnvG(),
		})
		if err != nil {
			b.Fatal(err)
		}
		s, err := c.ComputeSchedule("tic", 2, 1)
		if err != nil {
			b.Fatal(err)
		}
		exp := Experiment{Warmup: 2, Measure: 10}
		events := []MembershipEvent{
			{Kind: WorkerFail, Worker: 1, Iteration: 3},
			{Kind: WorkerJoin, Worker: 1, Iteration: 5},
			{Kind: PSShardFail, PS: 0, Iteration: 6},
			{Kind: PSRecover, PS: 0, Iteration: 8},
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Run(exp, RunOptions{Schedule: s, Seed: 1, Jitter: -1, Events: events}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
