package sim_test

// Steady-state allocation assertions and the BenchmarkSimRun microbenchmark
// comparing the reusable Runner against the frozen pre-refactor baseline
// (internal/sim/simref). The allocation tests are the deterministic
// per-run gate; the benchmark is a pprof entry point — see
// docs/performance.md for how to read it.

import (
	"testing"

	"tictac/internal/cluster"
	"tictac/internal/model"
	"tictac/internal/sim"
	"tictac/internal/sim/simref"
	"tictac/internal/timing"
)

// benchCluster builds the shootout reference configuration for a model:
// training, 4 workers, 1 PS, envG — the communication-bound regime every
// headline experiment runs in.
func benchCluster(tb testing.TB, name string) (*cluster.Cluster, sim.Config) {
	tb.Helper()
	spec, ok := model.ByName(name)
	if !ok {
		tb.Fatalf("model %q missing from catalog", name)
	}
	c, err := cluster.Build(cluster.Config{
		Model:    spec,
		Mode:     model.Training,
		Workers:  4,
		PS:       1,
		Platform: timing.EnvG(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := c.ComputeSchedule("tic", 2, 1)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := sim.Config{
		Oracle:      c.Config.Platform.Oracle(),
		Schedule:    s,
		Seed:        1,
		Jitter:      c.Config.Platform.Jitter,
		ReorderProb: 0.005,
	}
	return c, cfg
}

// TestRunnerSteadyStateAllocs pins the zero-allocation contract: once a
// Runner's buffers have warmed up, Run allocates only the returned Result —
// the Result struct, its Spans backing, the two per-device maps, and the
// shared recv-order string backing. Everything else (indegree, ready
// queues, event heap, RNG, pick scratch) is recycled.
func TestRunnerSteadyStateAllocs(t *testing.T) {
	c, cfg := benchCluster(t, "AlexNet v2")
	r, err := sim.NewRunner(c.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(cfg); err != nil { // warm up buffers
		t.Fatal(err)
	}
	// Result + Spans + RecvStartOrder map (header+buckets) + recv-key
	// backing + DeviceFinish map (header+buckets) — ≤ 8 allocations, none
	// of them run-state. A regression here means a per-run buffer escaped
	// the recycled state.
	const resultOnlyBudget = 8
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := r.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > resultOnlyBudget {
		t.Fatalf("steady-state Runner.Run allocates %.1f objects/run, want <= %d (Result only)",
			allocs, resultOnlyBudget)
	}
}

// TestRunIntoSteadyStateAllocs pins RunInto's contract: refilling a warmed
// Result reuses its Spans backing and both maps, so a steady-state run
// allocates at most one object — the recv-order key backing, which stays
// fresh per run so earlier orders are never overwritten. It holds for the
// cost model called per op and for the same model tabulated.
func TestRunIntoSteadyStateAllocs(t *testing.T) {
	c, cfg := benchCluster(t, "AlexNet v2")
	r, err := sim.NewRunner(c.Graph)
	if err != nil {
		t.Fatal(err)
	}
	for _, oracle := range []timing.Oracle{cfg.Oracle, timing.Tabulate(c.Graph, cfg.Oracle)} {
		cfg.Oracle = oracle
		var res sim.Result
		if err := r.RunInto(cfg, &res); err != nil { // warm up buffers
			t.Fatal(err)
		}
		const recvBackingOnly = 1
		allocs := testing.AllocsPerRun(50, func() {
			if err := r.RunInto(cfg, &res); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > recvBackingOnly {
			t.Fatalf("steady-state RunInto (%T) allocates %.1f objects/run, want <= %d (recv-key backing only)",
				oracle, allocs, recvBackingOnly)
		}
	}
}

// TestRunnerSteadyStateAllocsBaseline covers the unscheduled path too (no
// compiled table, pure random picks).
func TestRunnerSteadyStateAllocsBaseline(t *testing.T) {
	c, cfg := benchCluster(t, "AlexNet v2")
	cfg.Schedule = nil
	r, err := sim.NewRunner(c.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(cfg); err != nil {
		t.Fatal(err)
	}
	const resultOnlyBudget = 8
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := r.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > resultOnlyBudget {
		t.Fatalf("steady-state baseline Run allocates %.1f objects/run, want <= %d", allocs, resultOnlyBudget)
	}
}

// benchSimModels is the BenchmarkSimRun model set: small/sequential,
// mid-size inception, residual, and the largest-transfer VGG.
var benchSimModels = []string{"AlexNet v2", "Inception v2", "ResNet-50 v1", "VGG-16"}

// BenchmarkSimRun measures one simulated iteration of the shootout
// configuration per model: "reference" is the frozen pre-refactor engine
// rebuilding its state every run, "runner" is the reusable zero-allocation
// Runner in steady state. The acceptance bar for the rewrite is runner ≥ 2x
// reference on ns/op.
func BenchmarkSimRun(b *testing.B) {
	for _, name := range benchSimModels {
		c, cfg := benchCluster(b, name)
		b.Run(name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := simref.Run(c.Graph, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/runner", func(b *testing.B) {
			r, err := sim.NewRunner(c.Graph)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
