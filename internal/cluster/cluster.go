// Package cluster assembles full Model-Replica + Parameter-Server execution
// graphs (§2.2, Figure 2) and runs synchronized training/inference
// iterations on the discrete-event simulator.
//
// Each worker holds an identical replica of the model's worker DAG; each
// parameter tensor is sharded onto one PS, which hosts the five PS-side ops
// per parameter (variable/read for serving, aggregate/update for training).
// Transfers between a worker and a PS share one serialized channel resource,
// matching gRPC's one-channel-per-worker-PS-pair behaviour (§5.1).
//
// A simulated iteration costs only the simulation: each Cluster tabulates
// its cost model once (timing.Table), runs every iteration through one
// shared sim.Runner, and Run refills one pooled sim.Result across the
// warmup and measured iterations.
package cluster

import (
	"fmt"
	"sync"

	"tictac/internal/core"
	"tictac/internal/graph"
	"tictac/internal/model"
	"tictac/internal/sched"
	"tictac/internal/sim"
	"tictac/internal/timing"
)

// Config describes a cluster experiment setup.
type Config struct {
	// Model is the Table 1 model spec to replicate on every worker.
	Model model.Spec
	// Mode selects training or inference worker graphs.
	Mode model.Mode
	// Workers is the number of worker devices (>= 1).
	Workers int
	// PS is the number of parameter-server devices (>= 1).
	PS int
	// BatchFactor scales the model's standard batch size (×0.5, ×1, ×2 in
	// Figure 10). Zero means 1.
	BatchFactor float64
	// Platform supplies the cost model (EnvG or EnvC). With Platforms set
	// it is the profile every device without an override resolves to.
	Platform timing.Platform
	// Platforms, when non-nil, makes the cluster heterogeneous: per-device
	// Platform overrides and per-channel bandwidth/latency overrides
	// layered over Platform. Build validates every override key against
	// the cluster's actual device tags and channel resources (a typo would
	// otherwise be a silent no-op) and normalizes the map so that
	// Platforms.Default and Platform agree — set either one; if both are
	// set they must describe the same base profile. Nil, or a map with no
	// overrides, is bit-identical to the homogeneous model. Jitter stays a
	// per-run scalar (Platform's, or RunOptions.Jitter): a device
	// override's Jitter field is ignored.
	Platforms *timing.PlatformMap
	// Iterations chains this many back-to-back synchronized iterations into
	// one graph (0 or 1 = single iteration). Iteration k+1's read of a
	// parameter depends on iteration k's update of that parameter, so
	// transfers pipeline per-parameter across the iteration boundary — the
	// steady-state behaviour of a long training job. Throughput metrics
	// divide by the iteration count.
	Iterations int
	// SharedPSNIC switches the network model from one serialized channel
	// per worker↔PS pair (gRPC's queueing, the default and the paper's
	// model) to one serialized queue per PS NIC shared by all workers —
	// the opposite extreme, representing a PS whose single link is the
	// bottleneck. Scheduling contention is global per PS in this mode.
	SharedPSNIC bool
}

func (c Config) iterations() int {
	if c.Iterations < 1 {
		return 1
	}
	return c.Iterations
}

func (c Config) batch() int {
	f := c.BatchFactor
	if f == 0 {
		f = 1
	}
	b := int(float64(c.Model.Batch) * f)
	if b < 1 {
		b = 1
	}
	return b
}

// ValidateOverrides checks every PlatformMap override key against the
// device tags and channel resources this configuration actually builds, and
// every device override against the same sanity bar as the base platform.
// Build calls it; the service layer also calls it directly so an override
// typo surfaces as a client error before any build work is attempted.
func (c Config) ValidateOverrides() error {
	if c.Platforms == nil {
		return nil
	}
	for dev, p := range c.Platforms.Devices {
		if !c.knownDevice(dev) {
			return fmt.Errorf("cluster: platform override for unknown device %q", dev)
		}
		if p.ComputeFLOPS <= 0 || p.NetBandwidth <= 0 {
			return fmt.Errorf("cluster: invalid platform override for device %q", dev)
		}
	}
	for res, cc := range c.Platforms.Channels {
		if !c.knownChannel(res) {
			return fmt.Errorf("cluster: channel override for unknown resource %q", res)
		}
		if cc.Bandwidth < 0 || cc.Latency < 0 {
			return fmt.Errorf("cluster: negative channel override for %q", res)
		}
	}
	return nil
}

func (c Config) knownDevice(dev string) bool {
	for w := 0; w < c.Workers; w++ {
		if dev == WorkerDevice(w) {
			return true
		}
	}
	for j := 0; j < c.PS; j++ {
		if dev == PSDevice(j) {
			return true
		}
	}
	return false
}

func (c Config) knownChannel(res string) bool {
	if c.SharedPSNIC {
		for j := 0; j < c.PS; j++ {
			if res == PSDevice(j)+"/net" {
				return true
			}
		}
		return false
	}
	for w := 0; w < c.Workers; w++ {
		for j := 0; j < c.PS; j++ {
			if res == ChannelResource(w, j) {
				return true
			}
		}
	}
	return false
}

// Cluster is a built multi-device execution graph plus its metadata.
//
// A Cluster is read-only after Build: RunIteration, Run, ComputeSchedule and
// ReferenceWorker only read the graph, so one Cluster may be shared by
// concurrent goroutines — the parallel bench engine relies on this for the
// repeated-run experiments (Figure 12, unique orders). The simulation hot
// path goes through one lazily-built, concurrency-safe sim.Runner per
// graph (the Runner recycles per-run buffers; each schedule memoizes its
// own compiled table), a per-op cost table tabulated once from the cost
// model, and a cached reference-worker partition that both the efficiency
// metric and ComputeSchedule read. ChainRecvsByOrder clones before
// mutating.
type Cluster struct {
	Config Config
	// Graph is the full multi-device DAG executed each iteration.
	Graph *graph.Graph
	// Shard maps parameter name → PS index.
	Shard map[string]int
	// Params are the model's parameter tensors.
	Params []model.Param

	// runner is the reusable simulator for Graph, built on first use.
	runnerOnce sync.Once
	runner     *sim.Runner
	runnerErr  error

	// costs is the cost model tabulated over Graph (a timing.Table, boxed
	// once), built on first use. A cluster derived by WithPlatforms has
	// another cost model and builds its own.
	costsOnce sync.Once
	costs     timing.Oracle

	// effRef/effToRef are the cached reference-worker partition and the
	// full-graph op ID → reference op ID mapping (-1 = not a first-
	// iteration worker-0 op) used by the per-iteration efficiency metric
	// and, read-only, by ComputeSchedule.
	effOnce  sync.Once
	effRef   *graph.Graph
	effToRef []int32
}

// simRunner returns the Cluster's shared simulator, building it on first
// use. The Runner is safe for concurrent Run calls.
func (c *Cluster) simRunner() (*sim.Runner, error) {
	c.runnerOnce.Do(func() {
		c.runner, c.runnerErr = sim.NewRunner(c.Graph)
	})
	return c.runner, c.runnerErr
}

// costTable returns the cluster's cost oracle tabulated over Graph,
// building it on first use. It holds exactly oracle()'s values.
func (c *Cluster) costTable() timing.Oracle {
	c.costsOnce.Do(func() {
		c.costs = timing.Tabulate(c.Graph, c.oracle())
	})
	return c.costs
}

// effIndex returns the cached reference-worker partition and the dense
// full-graph → reference op mapping, building both on first use.
func (c *Cluster) effIndex() (*graph.Graph, []int32) {
	c.effOnce.Do(func() {
		ref := c.ReferenceWorker()
		toRef := make([]int32, c.Graph.Len())
		for i := range toRef {
			toRef[i] = -1
		}
		prefix := c.refPrefix()
		device := WorkerDevice(0)
		for _, op := range c.Graph.Ops() {
			if op.Device != device {
				continue
			}
			name := op.Name
			if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
				continue // other iterations of a chained graph
			}
			if rop := ref.Op(name[len(prefix):]); rop != nil {
				toRef[op.ID] = int32(rop.ID)
			}
		}
		c.effRef, c.effToRef = ref, toRef
	})
	return c.effRef, c.effToRef
}

// WorkerDevice returns the device tag of worker i.
func WorkerDevice(i int) string { return fmt.Sprintf("worker:%d", i) }

// PSDevice returns the device tag of parameter server j.
func PSDevice(j int) string { return fmt.Sprintf("ps:%d", j) }

// ChannelResource returns the serialized channel between a worker and a PS.
func ChannelResource(worker, ps int) string {
	return fmt.Sprintf("worker:%d/net:ps:%d", worker, ps)
}

// normalizePlatforms reconciles Platform with Platforms.Default (cloning
// the map so callers' values are never mutated), checks base-platform
// sanity and validates every override key. Build and WithPlatforms share
// it, so a derived cluster is held to exactly the bar a fresh build is.
func (c Config) normalizePlatforms() (Config, error) {
	if c.Platforms != nil {
		pm := c.Platforms.Clone()
		zero := timing.Platform{}
		switch {
		case pm.Default == zero:
			pm.Default = c.Platform
		case c.Platform == zero:
			c.Platform = pm.Default
		case pm.Default != c.Platform:
			return c, fmt.Errorf("cluster: Platform %q and Platforms.Default %q disagree", c.Platform.Name, pm.Default.Name)
		}
		c.Platforms = pm
	}
	if c.Platform.ComputeFLOPS <= 0 || c.Platform.NetBandwidth <= 0 {
		return c, fmt.Errorf("cluster: invalid platform %q", c.Platform.Name)
	}
	if err := c.ValidateOverrides(); err != nil {
		return c, err
	}
	return c, nil
}

// Build constructs the cluster graph for the given configuration.
func Build(cfg Config) (*Cluster, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("cluster: need >= 1 worker, got %d", cfg.Workers)
	}
	if cfg.PS < 1 {
		return nil, fmt.Errorf("cluster: need >= 1 PS, got %d", cfg.PS)
	}
	cfg, err := cfg.normalizePlatforms()
	if err != nil {
		return nil, err
	}
	params := cfg.Model.ParamTensors()
	shard := shardParams(params, cfg.PS)
	iters := cfg.iterations()

	full := graph.New()

	// Parameter variables exist once; per-iteration serving and update ops
	// hang off them.
	vars := make(map[string]*graph.Op, len(params))
	for _, p := range params {
		dev := PSDevice(shard[p.Name])
		v := full.MustAddOp(dev+"/var/"+p.Name, graph.Variable)
		v.Device, v.Resource, v.Param, v.Bytes = dev, dev+"/compute", p.Name, p.Bytes
		vars[p.Name] = v
	}

	// prevUpdate[param] is the op that produced the parameter's latest
	// value before the current iteration (the variable for iteration 0).
	prevUpdate := make(map[string]*graph.Op, len(params))
	for _, p := range params {
		prevUpdate[p.Name] = vars[p.Name]
	}
	// prevWorkerDone[w] gates an inference agent's next pull round.
	prevWorkerDone := make([][]*graph.Op, cfg.Workers)

	for it := 0; it < iters; it++ {
		ipfx := ""
		if iters > 1 {
			ipfx = fmt.Sprintf("i%d/", it)
		}
		// PS-side serving ops: one read per parameter per iteration, gated
		// by the previous iteration's update (training) so transfers
		// pipeline per-parameter across the iteration boundary.
		reads := make(map[string]*graph.Op, len(params))
		for _, p := range params {
			dev := PSDevice(shard[p.Name])
			r := full.MustAddOp(dev+"/"+ipfx+"read/"+p.Name, graph.Read)
			r.Device, r.Resource, r.Param, r.Bytes = dev, dev+"/compute", p.Name, p.Bytes
			full.MustConnect(prevUpdate[p.Name], r)
			reads[p.Name] = r
		}

		// Worker replicas.
		for w := 0; w < cfg.Workers; w++ {
			dev := WorkerDevice(w)
			chanFor := func(param string) string {
				if cfg.SharedPSNIC {
					return PSDevice(shard[param]) + "/net"
				}
				return ChannelResource(w, shard[param])
			}
			wg, err := model.BuildWorker(cfg.Model, cfg.Mode, cfg.batch(), dev, chanFor)
			if err != nil {
				return nil, err
			}
			prefix := fmt.Sprintf("%sw%d/", ipfx, w)
			if err := copyInto(full, wg, prefix); err != nil {
				return nil, err
			}
			for _, op := range wg.OpsOfKind(graph.Recv) {
				recv := full.Op(prefix + op.Name)
				full.MustConnect(reads[op.Param], recv)
				// Inference agents issue the next pull round only after
				// finishing the previous forward pass.
				for _, done := range prevWorkerDone[w] {
					full.MustConnect(done, recv)
				}
			}
			if cfg.Mode == model.Inference {
				var leaves []*graph.Op
				for _, op := range wg.Leaves() {
					leaves = append(leaves, full.Op(prefix+op.Name))
				}
				prevWorkerDone[w] = leaves
			}
		}

		// PS-side aggregation for training: every worker's gradient send
		// feeds the parameter's aggregate, which feeds its update.
		if cfg.Mode == model.Training {
			for _, p := range params {
				dev := PSDevice(shard[p.Name])
				agg := full.MustAddOp(dev+"/"+ipfx+"agg/"+p.Name, graph.Aggregate)
				agg.Device, agg.Resource, agg.Param = dev, dev+"/compute", p.Name
				agg.Bytes = p.Bytes * int64(cfg.Workers)
				upd := full.MustAddOp(dev+"/"+ipfx+"update/"+p.Name, graph.Update)
				upd.Device, upd.Resource, upd.Param, upd.Bytes = dev, dev+"/compute", p.Name, p.Bytes
				full.MustConnect(agg, upd)
				for w := 0; w < cfg.Workers; w++ {
					send := full.Op(fmt.Sprintf("%sw%d/send/grad/%s", ipfx, w, p.Name))
					if send == nil {
						return nil, fmt.Errorf("cluster: missing send op for %s on worker %d", p.Name, w)
					}
					full.MustConnect(send, agg)
				}
				prevUpdate[p.Name] = upd
			}
		}
	}

	if err := full.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return &Cluster{Config: cfg, Graph: full, Shard: shard, Params: params}, nil
}

// WithPlatforms returns a cluster identical to c except for its cost model:
// the given base platform plus optional heterogeneous overrides. The graph,
// parameter sharding and per-graph simulator precomputation (the shared
// sim.Runner and the reference-worker index) are shared with c rather than
// rebuilt — platforms never change topology, only per-op costs, which the
// derived cluster tabulates for itself on first use. The returned cluster
// is bit-identical in every output to a fresh Build of the same
// configuration (regression-tested), at none of the graph-construction
// cost; the batched what-if API leans on this to amortize one graph across
// many platform variants.
//
// The receiver and the result are both read-only after this call and may be
// used concurrently, like any built Cluster.
func (c *Cluster) WithPlatforms(platform timing.Platform, platforms *timing.PlatformMap) (*Cluster, error) {
	cfg := c.Config
	cfg.Platform = platform
	cfg.Platforms = platforms
	cfg, err := cfg.normalizePlatforms()
	if err != nil {
		return nil, err
	}
	nc := &Cluster{Config: cfg, Graph: c.Graph, Shard: c.Shard, Params: c.Params}
	// Adopt the parent's per-graph state. If the parent's runner failed to
	// build (or was never built), leave the child lazy: it would fail — or
	// build — identically on first use.
	if r, rerr := c.simRunner(); rerr == nil {
		nc.runnerOnce.Do(func() { nc.runner = r })
	}
	ref, toRef := c.effIndex()
	nc.effOnce.Do(func() { nc.effRef, nc.effToRef = ref, toRef })
	return nc, nil
}

// copyInto copies src's ops and edges into dst with every op name prefixed.
// Param tags are preserved un-prefixed so schedules keyed by parameter apply
// across replicas.
func copyInto(dst, src *graph.Graph, prefix string) error {
	for _, op := range src.Ops() {
		c, err := dst.AddOp(prefix+op.Name, op.Kind)
		if err != nil {
			return err
		}
		c.Device, c.Resource = op.Device, op.Resource
		c.Bytes, c.FLOPs, c.Param = op.Bytes, op.FLOPs, op.Param
	}
	for _, op := range src.Ops() {
		from := dst.Op(prefix + op.Name)
		for _, succ := range op.Out() {
			if err := dst.Connect(from, dst.Op(prefix+succ.Name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// shardParams assigns parameters to PS devices with greedy largest-first
// balancing by bytes (the standard PS placement heuristic).
func shardParams(params []model.Param, nPS int) map[string]int {
	shard := make(map[string]int, len(params))
	load := make([]int64, nPS)
	for _, p := range model.SortBySizeDesc(params) {
		best := 0
		for j := 1; j < nPS; j++ {
			if load[j] < load[best] {
				best = j
			}
		}
		shard[p.Name] = best
		load[best] += p.Bytes
	}
	return shard
}

// PSLoads returns the total parameter bytes hosted per PS.
func (c *Cluster) PSLoads() []int64 {
	loads := make([]int64, c.Config.PS)
	for _, p := range c.Params {
		loads[c.Shard[p.Name]] += p.Bytes
	}
	return loads
}

// oracle returns the cluster's ground-truth cost oracle: the heterogeneous
// PlatformMap when one is configured, the homogeneous platform otherwise
// (the exact same code path and arithmetic as before heterogeneity
// existed, keeping homogeneous runs bit-identical).
func (c *Cluster) oracle() timing.Oracle {
	if c.Config.Platforms != nil {
		return c.Config.Platforms.Oracle()
	}
	return c.Config.Platform.Oracle()
}

// refPrefix is the op-name prefix of the reference worker's first-iteration
// replica inside the full graph.
func (c *Cluster) refPrefix() string {
	if c.Config.iterations() > 1 {
		return "i0/w0/"
	}
	return "w0/"
}

// ReferenceWorker returns the partition of worker 0 (first iteration) with
// names un-prefixed — the graph the ordering wizard consumes (§4: "a
// reference worker partition"; all replicas and iterations are identical so
// one schedule serves all).
func (c *Cluster) ReferenceWorker() *graph.Graph {
	prefix := c.refPrefix()
	device := WorkerDevice(0)
	out := graph.New()
	strip := func(name string) (string, bool) {
		if len(name) > len(prefix) && name[:len(prefix)] == prefix {
			return name[len(prefix):], true
		}
		return "", false
	}
	for _, op := range c.Graph.Ops() {
		if op.Device != device {
			continue
		}
		name, ok := strip(op.Name)
		if !ok {
			continue
		}
		n := out.MustAddOp(name, op.Kind)
		n.Device, n.Resource = op.Device, op.Resource
		n.Bytes, n.FLOPs, n.Param = op.Bytes, op.FLOPs, op.Param
	}
	for _, op := range c.Graph.Ops() {
		from, ok := strip(op.Name)
		if !ok || op.Device != device {
			continue
		}
		for _, succ := range op.Out() {
			to, ok := strip(succ.Name)
			if !ok || succ.Device != device {
				continue
			}
			out.MustConnect(out.Op(from), out.Op(to))
		}
	}
	return out
}

// ComputeSchedule runs the ordering wizard for the cluster under the named
// scheduling policy (see internal/sched for the registry).
//
// sched.None (or the empty string) returns a nil schedule — the unscheduled
// baseline. Timing-aware policies that implement sched.OracleOrderer (tac)
// first trace warmup baseline iterations (the paper's tracing module),
// reduce them with the min-of-k estimator (§5), and order under the
// estimated oracle; every other policy orders the reference worker directly
// against the platform's analytic cost model. Either way the schedule is
// computed offline, before measurement iterations, exactly as in the paper
// ("the priority list is calculated offline before the execution; all
// iterations follow the same order"). seed feeds both the warmup trace and
// any stochastic policy (random).
//
// On a heterogeneous cluster the oracle path sees the full PlatformMap
// (warmup traces run on the hetero graph, so a slow worker's measured op
// times flow into the estimated oracle), while analytic policies order
// against the reference worker's own resolved platform.
func (c *Cluster) ComputeSchedule(policy string, warmupIters int, seed int64) (*core.Schedule, error) {
	if policy == "" || policy == sched.None {
		return nil, nil
	}
	p, err := sched.New(policy, seed)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	// Policies only read the partition, so the cached one serves every
	// call, concurrent ones included.
	ref, _ := c.effIndex()
	if oo, ok := p.(sched.OracleOrderer); ok {
		oracle, err := c.TraceOracle(warmupIters, seed, timing.EstimateMin)
		if err != nil {
			return nil, err
		}
		return oo.OrderWithOracle(ref, oracle)
	}
	plat := c.Config.Platform
	if c.Config.Platforms != nil {
		plat = c.Config.Platforms.For(WorkerDevice(0))
	}
	return p.Order(ref, &plat)
}

// TraceRuns runs warmup baseline iterations with the tracing module
// attached and returns the tracer (§5: tracing module). Callers can derive
// estimators of several kinds from the one trace via OracleFromTrace — the
// oracle-estimator ablation compares three reductions of identical samples.
func (c *Cluster) TraceRuns(warmupIters int, seed int64) (*timing.Tracer, error) {
	if warmupIters < 1 {
		warmupIters = 5
	}
	runner, err := c.simRunner()
	if err != nil {
		return nil, err
	}
	tracer := timing.NewTracer()
	res := resultPool.Get().(*sim.Result)
	defer resultPool.Put(res)
	for i := 0; i < warmupIters; i++ {
		err := runner.RunInto(sim.Config{
			Oracle: c.costTable(),
			Seed:   seed + int64(i),
			Jitter: c.Config.Platform.Jitter,
			Tracer: tracer,
		}, res)
		if err != nil {
			return nil, err
		}
	}
	return tracer, nil
}

// OracleFromTrace reduces a tracer's measurements into a time oracle keyed
// by reference-worker op names. kind selects the reduction (the paper uses
// min of 5 runs).
func (c *Cluster) OracleFromTrace(tracer *timing.Tracer, kind timing.EstimateKind) timing.Oracle {
	// Trace names carry the worker prefix; rekey to reference names. The
	// fallback must be the cost model itself, not costTable: the probes
	// are reference-partition ops, whose IDs do not index Graph.
	est := tracer.Estimator(kind, c.oracle())
	prefix := c.refPrefix()
	return timing.OracleFunc(func(op *graph.Op) float64 {
		probe := *op
		probe.Name = prefix + op.Name
		return est.Time(&probe)
	})
}

// TraceOracle runs warmup baseline iterations and returns a time oracle
// estimated from the measurements (§5: tracing module → time oracle
// estimator). It is TraceRuns followed by OracleFromTrace.
func (c *Cluster) TraceOracle(warmupIters int, seed int64, kind timing.EstimateKind) (timing.Oracle, error) {
	tracer, err := c.TraceRuns(warmupIters, seed)
	if err != nil {
		return nil, err
	}
	return c.OracleFromTrace(tracer, kind), nil
}

// ChainRecvsByOrder returns a clone of the cluster graph with every
// worker's recv ops chained along the schedule order — the conservative
// "enforce directly on the DAG" alternative the paper rejects in §5.1
// because each transfer then waits for the previous one's completion,
// serializing across channels and preventing pipelining.
func (c *Cluster) ChainRecvsByOrder(order []string) (*graph.Graph, error) {
	g := c.Graph.Clone()
	iters := c.Config.iterations()
	for it := 0; it < iters; it++ {
		ipfx := ""
		if iters > 1 {
			ipfx = fmt.Sprintf("i%d/", it)
		}
		for w := 0; w < c.Config.Workers; w++ {
			prefix := fmt.Sprintf("%sw%d/recv/", ipfx, w)
			var prev *graph.Op
			for _, key := range order {
				op := g.Op(prefix + key)
				if op == nil {
					return nil, fmt.Errorf("cluster: recv for %q missing on worker %d", key, w)
				}
				if prev != nil {
					if err := g.Connect(prev, op); err != nil {
						return nil, err
					}
				}
				prev = op
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
