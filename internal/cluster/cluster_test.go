package cluster

import (
	"reflect"
	"testing"
	"testing/quick"

	"tictac/internal/core"
	"tictac/internal/graph"
	"tictac/internal/model"
	"tictac/internal/sim"
	"tictac/internal/timing"
)

func smallConfig(workers, ps int, mode model.Mode) Config {
	spec, _ := model.ByName("AlexNet v2")
	return Config{
		Model:    spec,
		Mode:     mode,
		Workers:  workers,
		PS:       ps,
		Platform: timing.EnvG(),
	}
}

func TestBuildValidatesInput(t *testing.T) {
	cfg := smallConfig(0, 1, model.Training)
	if _, err := Build(cfg); err == nil {
		t.Fatal("0 workers accepted")
	}
	cfg = smallConfig(1, 0, model.Training)
	if _, err := Build(cfg); err == nil {
		t.Fatal("0 PS accepted")
	}
	cfg = smallConfig(1, 1, model.Training)
	cfg.Platform = timing.Platform{}
	if _, err := Build(cfg); err == nil {
		t.Fatal("zero platform accepted")
	}
}

func TestBuildShapeTraining(t *testing.T) {
	cfg := smallConfig(2, 2, model.Training)
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := cfg.Model
	// Op budget: W worker replicas + per-param PS ops
	// (var+read always; agg+update in training).
	want := 2*spec.OpsTraining + spec.Params*4
	if got := c.Graph.Len(); got != want {
		t.Fatalf("graph ops = %d, want %d", got, want)
	}
	devs := c.Graph.Devices()
	if len(devs) != 4 {
		t.Fatalf("devices = %v", devs)
	}
	// Every param sharded to a valid PS.
	if len(c.Shard) != spec.Params {
		t.Fatalf("shard size = %d", len(c.Shard))
	}
	for p, j := range c.Shard {
		if j < 0 || j >= 2 {
			t.Fatalf("param %s on PS %d", p, j)
		}
	}
}

func TestBuildShapeInference(t *testing.T) {
	cfg := smallConfig(2, 1, model.Inference)
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := cfg.Model
	want := 2*spec.OpsInference + spec.Params*2 // var+read only
	if got := c.Graph.Len(); got != want {
		t.Fatalf("graph ops = %d, want %d", got, want)
	}
	// No aggregate ops in inference.
	if n := len(c.Graph.OpsOfKind(graph.Aggregate)); n != 0 {
		t.Fatalf("inference graph has %d aggregates", n)
	}
}

func TestShardBalanced(t *testing.T) {
	cfg := smallConfig(1, 4, model.Training)
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loads := c.PSLoads()
	var total, maxL, minL int64
	minL = loads[0]
	for _, l := range loads {
		total += l
		if l > maxL {
			maxL = l
		}
		if l < minL {
			minL = l
		}
	}
	if total != cfg.Model.ParamBytes() {
		t.Fatalf("shard total = %d, want %d", total, cfg.Model.ParamBytes())
	}
	// Greedy largest-first keeps the imbalance under control. AlexNet's
	// biggest FC tensor dominates, so allow generous slack but verify no PS
	// is empty.
	if minL == 0 {
		t.Fatalf("a PS got no parameters: %v", loads)
	}
}

func TestReferenceWorkerMatchesModelBuild(t *testing.T) {
	cfg := smallConfig(3, 2, model.Training)
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := c.ReferenceWorker()
	if ref.Len() != cfg.Model.OpsTraining {
		t.Fatalf("reference worker ops = %d, want %d", ref.Len(), cfg.Model.OpsTraining)
	}
	// Recvs are roots again (cross-device read→recv edges dropped).
	for _, op := range ref.OpsOfKind(graph.Recv) {
		if !op.IsRoot() {
			t.Fatalf("recv %s not a root in reference partition", op.Name)
		}
	}
	// Names are un-prefixed.
	if ref.Op("recv/p000/weights") == nil {
		t.Fatal("reference worker names still prefixed")
	}
}

func TestComputeSchedulePolicies(t *testing.T) {
	cfg := smallConfig(2, 1, model.Training)
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := c.ComputeSchedule("none", 0, 1); err != nil || s != nil {
		t.Fatalf("none: %v %v", s, err)
	}
	if s, err := c.ComputeSchedule("", 0, 1); err != nil || s != nil {
		t.Fatalf("empty policy: %v %v", s, err)
	}
	tic, err := c.ComputeSchedule("tic", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tic.Order) != cfg.Model.Params {
		t.Fatalf("TIC order len = %d", len(tic.Order))
	}
	// The registry path must agree with the direct core entry point: the
	// refactor may not change what "tic" means.
	direct, err := core.TIC(c.ReferenceWorker())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tic.Order, direct.Order) {
		t.Fatalf("policy tic order %v != core.TIC order %v", tic.Order, direct.Order)
	}
	tac, err := c.ComputeSchedule("tac", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tac.Order) != cfg.Model.Params {
		t.Fatalf("TAC order len = %d", len(tac.Order))
	}
	// Every other registered policy also produces a full, runnable order.
	for _, policy := range []string{"random", "fifo", "revtopo", "smallest-first", "critical-path"} {
		s, err := c.ComputeSchedule(policy, 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if len(s.Order) != cfg.Model.Params {
			t.Fatalf("%s order len = %d", policy, len(s.Order))
		}
		if _, err := c.RunIteration(RunOptions{Schedule: s, Seed: 3, Jitter: -1}); err != nil {
			t.Fatalf("%s run: %v", policy, err)
		}
	}
	if _, err := c.ComputeSchedule("bogus", 0, 1); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestRunIterationBaselineVsTIC(t *testing.T) {
	spec, _ := model.ByName("VGG-16")
	cfg := Config{Model: spec, Mode: model.Training, Workers: 4, PS: 1, Platform: timing.EnvG()}
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tic, err := c.ComputeSchedule("tic", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := c.Run(Experiment{Warmup: 1, Measure: 5}, RunOptions{Seed: 11, Jitter: -1})
	if err != nil {
		t.Fatal(err)
	}
	enforced, err := c.Run(Experiment{Warmup: 1, Measure: 5}, RunOptions{Schedule: tic, Seed: 11, Jitter: -1})
	if err != nil {
		t.Fatal(err)
	}
	if base.MeanMakespan <= 0 || enforced.MeanMakespan <= 0 {
		t.Fatal("non-positive makespans")
	}
	// On a communication-heavy model, enforcement should not be slower on
	// average (the paper reports up to ~20% training speedup on VGG).
	if enforced.MeanMakespan > base.MeanMakespan*1.05 {
		t.Fatalf("TIC slower than baseline: %.4f vs %.4f", enforced.MeanMakespan, base.MeanMakespan)
	}
	// Efficiency must improve or stay comparable.
	if enforced.MeanEfficiency < base.MeanEfficiency-0.05 {
		t.Fatalf("TIC efficiency %v worse than baseline %v", enforced.MeanEfficiency, base.MeanEfficiency)
	}
	// Enforced order is deterministic: exactly one unique recv order.
	if enforced.UniqueRecvOrders != 1 {
		t.Fatalf("enforced unique orders = %d, want 1", enforced.UniqueRecvOrders)
	}
	if base.UniqueRecvOrders < 2 {
		t.Fatalf("baseline unique orders = %d, want > 1", base.UniqueRecvOrders)
	}
}

func TestIterationMetricsSane(t *testing.T) {
	cfg := smallConfig(4, 2, model.Training)
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	it, err := c.RunIteration(RunOptions{Seed: 3, Jitter: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(it.WorkerFinish) != 4 {
		t.Fatalf("worker finishes = %d", len(it.WorkerFinish))
	}
	if it.StragglerPct < 0 || it.StragglerPct > 100 {
		t.Fatalf("straggler pct = %v", it.StragglerPct)
	}
	if it.Efficiency < -0.01 || it.Efficiency > 1.01 {
		t.Fatalf("efficiency = %v", it.Efficiency)
	}
	if tp := it.Throughput(cfg.Model.Batch, 4); tp <= 0 {
		t.Fatalf("throughput = %v", tp)
	}
	if it.Throughput(0, 0) != 0 {
		t.Fatal("zero batch should give zero throughput")
	}
	if len(it.RecvOrder) != cfg.Model.Params {
		t.Fatalf("recv order covers %d params", len(it.RecvOrder))
	}
}

func TestRunRejectsEmptyExperiment(t *testing.T) {
	cfg := smallConfig(1, 1, model.Inference)
	c, _ := Build(cfg)
	if _, err := c.Run(Experiment{Warmup: 0, Measure: 0}, RunOptions{}); err == nil {
		t.Fatal("empty experiment accepted")
	}
}

func TestBatchFactor(t *testing.T) {
	cfg := smallConfig(1, 1, model.Training)
	cfg.BatchFactor = 0.5
	if got := cfg.batch(); got != cfg.Model.Batch/2 {
		t.Fatalf("batch = %d", got)
	}
	cfg.BatchFactor = 0
	if got := cfg.batch(); got != cfg.Model.Batch {
		t.Fatalf("default batch = %d", got)
	}
	cfg.BatchFactor = 0.0001
	if got := cfg.batch(); got != 1 {
		t.Fatalf("tiny batch = %d", got)
	}
}

func TestBuildChainedIterationsTraining(t *testing.T) {
	cfg := smallConfig(2, 2, model.Training)
	cfg.Iterations = 3
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := cfg.Model
	// Per iteration: workers' replicas + read/agg/update per param; vars
	// exist once.
	perIter := 2*spec.OpsTraining + spec.Params*3
	want := 3*perIter + spec.Params
	if got := c.Graph.Len(); got != want {
		t.Fatalf("ops = %d, want %d", got, want)
	}
	// Iteration 1's read depends on iteration 0's update (per-parameter
	// pipelining across the boundary).
	p := c.Params[0].Name
	dev := PSDevice(c.Shard[p])
	read1 := c.Graph.Op(dev + "/i1/read/" + p)
	upd0 := c.Graph.Op(dev + "/i0/update/" + p)
	if read1 == nil || upd0 == nil {
		t.Fatal("chained PS ops missing")
	}
	found := false
	for _, in := range read1.In() {
		if in == upd0 {
			found = true
		}
	}
	if !found {
		t.Fatal("i1 read not gated by i0 update")
	}
	// Reference worker still matches the single-iteration worker graph.
	ref := c.ReferenceWorker()
	if ref.Len() != spec.OpsTraining {
		t.Fatalf("reference ops = %d, want %d", ref.Len(), spec.OpsTraining)
	}
	if ref.Op("recv/p000/weights") == nil {
		t.Fatal("reference names wrong")
	}
	// Scheduling and running a chained graph works end to end.
	sched, err := c.ComputeSchedule("tic", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	it, err := c.RunIteration(RunOptions{Schedule: sched, Seed: 5, Jitter: -1})
	if err != nil {
		t.Fatal(err)
	}
	if it.Makespan <= 0 {
		t.Fatal("chained makespan")
	}
	if len(it.RecvOrder) != 3*spec.Params {
		t.Fatalf("recv order covers %d, want %d", len(it.RecvOrder), 3*spec.Params)
	}
}

func TestBuildChainedIterationsInference(t *testing.T) {
	cfg := smallConfig(2, 1, model.Inference)
	cfg.Iterations = 2
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// An agent's second pull round is gated by its first forward pass:
	// i1 recvs must have a worker-side predecessor.
	p := c.Params[0].Name
	recv1 := c.Graph.Op("i1/w0/recv/" + p)
	if recv1 == nil {
		t.Fatal("i1 recv missing")
	}
	workerGated := false
	for _, in := range recv1.In() {
		if in.Device == WorkerDevice(0) {
			workerGated = true
		}
	}
	if !workerGated {
		t.Fatal("i1 recv not gated by previous inference round")
	}
	if _, err := c.RunIteration(RunOptions{Seed: 1, Jitter: -1}); err != nil {
		t.Fatal(err)
	}
}

func TestChainedThroughputCountsAllIterations(t *testing.T) {
	cfg := smallConfig(2, 1, model.Training)
	single, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Iterations = 3
	chained, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exp := Experiment{Warmup: 0, Measure: 3}
	a, err := single.Run(exp, RunOptions{Seed: 3, Jitter: -1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := chained.Run(exp, RunOptions{Seed: 3, Jitter: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Per-sample throughput of the chained graph must be in the same
	// ballpark (pipelining can only help; amortization must not triple or
	// zero it).
	ratio := b.MeanThroughput / a.MeanThroughput
	if ratio < 0.7 || ratio > 2.5 {
		t.Fatalf("chained/single throughput ratio = %.2f", ratio)
	}
}

// TestTraceOracleMeasuresChainedClusters pins that the traced oracle reads
// the trace on every graph shape: a chained cluster names its ops
// "i0/w0/...", and an oracle that probes "w0/..." finds no samples and
// silently falls back to the analytic cost model.
func TestTraceOracleMeasuresChainedClusters(t *testing.T) {
	for _, iters := range []int{1, 2, 3} {
		cfg := smallConfig(2, 1, model.Training)
		cfg.Iterations = iters
		c, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := c.TraceOracle(5, 1, timing.EstimateMin)
		if err != nil {
			t.Fatal(err)
		}
		analytic := c.oracle()
		differ := 0
		for _, op := range c.ReferenceWorker().Ops() {
			if traced.Time(op) != analytic.Time(op) {
				differ++
			}
		}
		if differ == 0 {
			t.Errorf("Iterations=%d: traced oracle equals the analytic one on every reference op", iters)
		}
	}
}

func TestChainRecvsByOrder(t *testing.T) {
	cfg := smallConfig(2, 1, model.Training)
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := c.ComputeSchedule("tic", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	chained, err := c.ChainRecvsByOrder(sched.Order)
	if err != nil {
		t.Fatal(err)
	}
	// One extra edge per consecutive recv pair per worker.
	wantExtra := 2 * (len(sched.Order) - 1)
	if got := chained.NumEdges() - c.Graph.NumEdges(); got != wantExtra {
		t.Fatalf("extra edges = %d, want %d", got, wantExtra)
	}
	// The chained graph enforces the order without any schedule.
	res, err := sim.Run(chained, sim.Config{Oracle: cfg.Platform.Oracle(), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	order := res.RecvStartOrder[WorkerDevice(0)]
	for i, key := range sched.Order {
		if order[i] != key {
			t.Fatalf("chained order %v != schedule %v", order, sched.Order)
		}
	}
	// Unknown key errors.
	if _, err := c.ChainRecvsByOrder([]string{"ghost"}); err == nil {
		t.Fatal("unknown key accepted")
	}
	// Works on multi-iteration graphs too.
	cfg.Iterations = 2
	c2, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.ChainRecvsByOrder(sched.Order); err != nil {
		t.Fatalf("chained multi-iteration: %v", err)
	}
}

func TestSharedPSNIC(t *testing.T) {
	cfg := smallConfig(4, 2, model.Training)
	cfg.SharedPSNIC = true
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// All transfers land on the two PS NIC queues; no per-pair channels.
	for _, r := range c.Graph.Resources() {
		if len(r) > 4 && r[len(r)-4:] == "/net" {
			continue
		}
		if containsSub(r, "/net:ps:") {
			t.Fatalf("per-pair channel %q present in shared-NIC mode", r)
		}
	}
	found := false
	for _, r := range c.Graph.Resources() {
		if r == "ps:0/net" {
			found = true
		}
	}
	if !found {
		t.Fatalf("shared NIC resource missing: %v", c.Graph.Resources())
	}
	// Iterations still run, and with one queue per PS the straggler math
	// stays bounded.
	it, err := c.RunIteration(RunOptions{Seed: 2, Jitter: -1})
	if err != nil {
		t.Fatal(err)
	}
	if it.Makespan <= 0 || it.StragglerPct < 0 || it.StragglerPct > 100 {
		t.Fatalf("metrics: %+v", it)
	}
	// Shared NIC serializes all workers through one link: iteration time
	// must not beat the per-pair-channel model.
	perPair, err := Build(smallConfig(4, 2, model.Training))
	if err != nil {
		t.Fatal(err)
	}
	itPair, err := perPair.RunIteration(RunOptions{Seed: 2, Jitter: -1})
	if err != nil {
		t.Fatal(err)
	}
	if it.Makespan < itPair.Makespan*0.95 {
		t.Fatalf("shared NIC (%v) faster than per-pair channels (%v)", it.Makespan, itPair.Makespan)
	}
}

func containsSub(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// Property: for any small cluster shape, the built graph validates, shard
// covers all params, and an iteration completes with bounded metrics.
func TestQuickClusterShapes(t *testing.T) {
	specs := model.Catalog()
	f := func(wRaw, pRaw, mRaw, sRaw uint8) bool {
		w := 1 + int(wRaw%4)
		p := 1 + int(pRaw%3)
		mode := model.Inference
		if mRaw%2 == 1 {
			mode = model.Training
		}
		spec := specs[int(sRaw)%2] // limit to the two cheapest models
		if spec.Params > 40 {
			spec, _ = model.ByName("AlexNet v2")
		}
		cfg := Config{Model: spec, Mode: mode, Workers: w, PS: p, Platform: timing.EnvG()}
		c, err := Build(cfg)
		if err != nil {
			return false
		}
		if err := c.Graph.Validate(); err != nil {
			return false
		}
		it, err := c.RunIteration(RunOptions{Seed: int64(wRaw) * 31, Jitter: -1})
		if err != nil {
			return false
		}
		return it.Makespan > 0 && it.StragglerPct >= 0 && it.StragglerPct <= 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
