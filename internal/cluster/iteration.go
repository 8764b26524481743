package cluster

import (
	"fmt"
	"strings"
	"sync"

	"tictac/internal/core"
	"tictac/internal/graph"
	"tictac/internal/sim"
	"tictac/internal/stats"
	"tictac/internal/timing"
)

// Iteration summarizes one synchronized training/inference step.
type Iteration struct {
	// Makespan is the iteration time: all workers synchronize at the end
	// of the step, so the slowest path defines it.
	Makespan float64
	// WorkerFinish is each worker's local finish time.
	WorkerFinish []float64
	// StragglerPct is the maximum time any worker spends waiting for the
	// iteration to complete, as a percentage of the iteration time (§6.3).
	StragglerPct float64
	// Efficiency is the scheduling-efficiency metric E (eq. 3) evaluated on
	// the reference worker partition with this iteration's measured op
	// times and the worker's measured makespan.
	Efficiency float64
	// RecvOrder is worker 0's parameter arrival order this iteration.
	RecvOrder []string
	// ReorderEvents counts injected schedule inversions.
	ReorderEvents int
	// ActiveWorkers is the number of workers that executed this
	// iteration's reported run (Config.Workers unless membership events
	// removed some).
	ActiveWorkers int
	// RecoverySeconds is the churn overhead folded into Makespan: wasted
	// aborted-attempt time plus PS shard reload/resync time. Zero without
	// membership events.
	RecoverySeconds float64
	// Events reports the per-event recovery cost of every membership
	// event that struck this iteration.
	Events []EventOutcome
}

// EventOutcome is the recovery cost of one membership event.
type EventOutcome struct {
	// Kind is the event type.
	Kind EventKind
	// Worker is the target worker for worker events, -1 otherwise.
	Worker int
	// PS is the target shard for PS events, -1 otherwise.
	PS int
	// WastedSeconds is the aborted-attempt wall time attributable to this
	// event (fails only): its fail point times the aborted run's makespan.
	WastedSeconds float64
	// ReloadSeconds is the time to re-serve or resync a PS shard's hosted
	// state over its network link (PS fail and recover events).
	ReloadSeconds float64
	// RefetchBytes counts parameter bytes moved to recover: the full
	// parameter set for a worker fail's re-fetch or a join's cold-start
	// pull, the shard's hosted bytes for PS events.
	RefetchBytes int64
}

// Throughput returns samples/second for this iteration given the per-worker
// batch size: all workers process their batch each step.
func (it Iteration) Throughput(batch, workers int) float64 {
	if it.Makespan <= 0 {
		return 0
	}
	return float64(batch*workers) / it.Makespan
}

// Straggler slows one worker for a contiguous window of iterations,
// modelling a transient hardware or co-tenancy slowdown (thermal
// throttling, a noisy neighbour). It scales the duration of the worker's
// device-local ops — compute, not transfers; use Contention or a
// PlatformMap channel override to slow the network.
type Straggler struct {
	// Worker is the index of the slowed worker.
	Worker int
	// Factor multiplies every affected op's duration (>1 = slower).
	// Factors <= 0 and 1 are no-ops.
	Factor float64
	// From is the first affected iteration index, counted across the
	// experiment protocol including warmup (Run numbers iterations 0..N-1
	// and stamps RunOptions.Iteration).
	From int
	// Until is the first unaffected iteration again; Until <= From means
	// the slowdown never ends once it starts.
	Until int
}

// active reports whether the window covers the given iteration index.
func (s Straggler) active(iter int) bool {
	return iter >= s.From && (s.Until <= s.From || iter < s.Until)
}

// Contention models background network traffic: every channel transfer's
// duration is multiplied by Factor during iterations [From, Until), with
// the same window semantics as Straggler.
type Contention struct {
	// Factor multiplies transfer durations (>1 = slower network).
	Factor float64
	// From is the first affected iteration (inclusive).
	From int
	// Until is the first unaffected iteration; <= From means open-ended.
	Until int
}

func (c Contention) active(iter int) bool {
	return iter >= c.From && (c.Until <= c.From || iter < c.Until)
}

// RunOptions controls a measured run.
type RunOptions struct {
	// Schedule enforces transfer priorities (nil = baseline).
	Schedule *core.Schedule
	// Seed seeds the iteration's randomness.
	Seed int64
	// Jitter overrides the platform jitter when >= 0; pass -1 to use the
	// platform default.
	Jitter float64
	// ReorderProb injects gRPC-style priority inversions.
	ReorderProb float64
	// Iteration is this iteration's index within the experiment protocol;
	// it selects which Straggler and Contention windows are active. Run
	// stamps it (warmup included); set it only when calling RunIteration
	// directly.
	Iteration int
	// Stragglers injects transient per-worker compute slowdowns.
	Stragglers []Straggler
	// Contention injects background network-contention windows.
	Contention []Contention
	// Events injects deterministic cluster-membership changes (joins,
	// leaves, mid-iteration failures, PS shard failures/recoveries),
	// windowed by Iteration like Stragglers. See MembershipEvent and
	// docs/churn-scenarios.md. An empty slice is bit-identical to the
	// churn-free path.
	Events []MembershipEvent

	// timeline is the validated, memoized view of Events. Run builds it
	// once per experiment; RunIteration builds one on the fly when called
	// directly with Events set.
	timeline *Timeline
}

// costScale folds the straggler and contention windows active at this
// iteration into a per-op duration multiplier for the simulator, or nil
// when nothing is active (keeping the uninjected path bit-identical).
func (c *Cluster) costScale(opts RunOptions) func(op *graph.Op) float64 {
	deviceFactor := make(map[string]float64)
	for _, s := range opts.Stragglers {
		if s.Factor <= 0 || s.Factor == 1 || !s.active(opts.Iteration) {
			continue
		}
		dev := WorkerDevice(s.Worker)
		if deviceFactor[dev] == 0 {
			deviceFactor[dev] = 1
		}
		deviceFactor[dev] *= s.Factor
	}
	net := 1.0
	for _, cn := range opts.Contention {
		if cn.Factor > 0 && cn.Factor != 1 && cn.active(opts.Iteration) {
			net *= cn.Factor
		}
	}
	if len(deviceFactor) == 0 && net == 1 {
		return nil
	}
	return func(op *graph.Op) float64 {
		if op.Kind == graph.Recv || op.Kind == graph.Send {
			return net
		}
		if f, ok := deviceFactor[op.Device]; ok {
			return f
		}
		return 1
	}
}

// resultPool recycles simulator Results across RunIteration, Run and
// TraceRuns calls. A Result's Spans backing holds one entry per op, which
// is most of what a simulated iteration would otherwise allocate.
var resultPool = sync.Pool{New: func() any { return new(sim.Result) }}

// measuredPool recycles iterationEfficiency's per-op duration tables, one
// of which every simulated iteration would otherwise allocate (its measured
// effect is in docs/performance.md, "Cluster and bench reuse").
var measuredPool = sync.Pool{New: func() any { return new(timing.Table) }}

// RunIteration simulates one synchronized iteration.
func (c *Cluster) RunIteration(opts RunOptions) (*Iteration, error) {
	res := resultPool.Get().(*sim.Result)
	defer resultPool.Put(res)
	return c.runIteration(opts, res)
}

// runIteration is RunIteration writing every simulator run into res. The
// returned Iteration shares nothing with res: its recv order is the run's
// fresh key backing, and everything else is copied out.
func (c *Cluster) runIteration(opts RunOptions, res *sim.Result) (*Iteration, error) {
	for _, s := range opts.Stragglers {
		if s.Worker < 0 || s.Worker >= c.Config.Workers {
			return nil, fmt.Errorf("cluster: straggler worker %d out of range [0, %d)", s.Worker, c.Config.Workers)
		}
	}
	tl := opts.timeline
	if tl == nil && len(opts.Events) > 0 {
		var err error
		tl, err = NewTimeline(c.Config.Workers, c.Config.PS, opts.Events)
		if err != nil {
			return nil, err
		}
	}
	jitter := opts.Jitter
	if jitter < 0 {
		jitter = c.Config.Platform.Jitter
	}
	runner, err := c.simRunner()
	if err != nil {
		return nil, err
	}
	if tl == nil || tl.Empty() {
		return c.runPlainIteration(opts, jitter, runner, res)
	}
	return c.runChurnIteration(opts, tl, jitter, runner, res)
}

// runPlainIteration is the churn-free fast path: exactly the pre-membership
// code, bit-identical in every float.
func (c *Cluster) runPlainIteration(opts RunOptions, jitter float64, runner *sim.Runner, res *sim.Result) (*Iteration, error) {
	err := runner.RunInto(sim.Config{
		Oracle:      c.costTable(),
		Schedule:    opts.Schedule,
		Seed:        opts.Seed,
		Jitter:      jitter,
		ReorderProb: opts.ReorderProb,
		CostScale:   c.costScale(opts),
	}, res)
	if err != nil {
		return nil, err
	}
	it := &Iteration{
		Makespan:      res.Makespan,
		RecvOrder:     res.RecvStartOrder[WorkerDevice(0)],
		ReorderEvents: res.ReorderEvents,
		WorkerFinish:  make([]float64, 0, c.Config.Workers),
		ActiveWorkers: c.Config.Workers,
	}
	minFinish := res.Makespan
	for w := 0; w < c.Config.Workers; w++ {
		f := res.DeviceFinish[WorkerDevice(w)]
		it.WorkerFinish = append(it.WorkerFinish, f)
		if f < minFinish {
			minFinish = f
		}
	}
	if res.Makespan > 0 {
		it.StragglerPct = (res.Makespan - minFinish) / res.Makespan * 100
	}
	it.Efficiency = c.iterationEfficiency(res)
	return it, nil
}

// abortSeed derives the aborted attempt's RNG stream from the iteration
// seed — distinct from the reported run's stream (the retry re-draws its
// noise) yet fully determined by it.
func abortSeed(seed int64) int64 {
	return seed*6364136223846793005 + 1442695040888963407
}

// shardReload is the time to re-serve a shard's hosted bytes over its
// network link: one transfer setup plus the bytes at channel bandwidth,
// using the shard device's resolved platform.
func (c *Cluster) shardReload(ps int, bytes int64) float64 {
	plat := c.Config.Platform
	if c.Config.Platforms != nil {
		plat = c.Config.Platforms.For(PSDevice(ps))
	}
	return plat.NetLatency + float64(bytes)/plat.NetBandwidth
}

// runChurnIteration simulates one iteration under membership events.
//
// When a fail strikes this iteration, the fleet's aborted attempt is
// simulated with the pre-fail membership on a derived seed; the attempt's
// wall time up to the latest fail point is lost (its in-flight transfers
// are dropped with it), and the reported run then executes on the post-fail
// fleet at the iteration's own seed, re-fetching parameters through its
// recv ops. PS shard failures and recoveries add the shard's reload time.
// Makespan is the sum of that recovery overhead and the reported run.
func (c *Cluster) runChurnIteration(opts RunOptions, tl *Timeline, jitter float64, runner *sim.Runner, res *sim.Result) (*Iteration, error) {
	st := tl.stateAt(opts.Iteration)

	recovery := 0.0
	var abortedMakespan float64
	if st.preActive != nil {
		// The aborted attempt only contributes its makespan, so it borrows
		// res before the reported run refills it.
		err := runner.RunInto(sim.Config{
			Oracle:      c.costTable(),
			Schedule:    opts.Schedule,
			Seed:        abortSeed(opts.Seed),
			Jitter:      jitter,
			ReorderProb: opts.ReorderProb,
			CostScale:   c.eventCostScale(opts, st.preDegraded),
			Disabled:    c.membershipMask(st.preActive),
		}, res)
		if err != nil {
			return nil, err
		}
		abortedMakespan = res.Makespan
		maxPoint := 0.0
		for _, e := range st.eventsHere {
			if (e.Kind == WorkerFail || e.Kind == PSShardFail) && e.failPoint() > maxPoint {
				maxPoint = e.failPoint()
			}
		}
		recovery += maxPoint * abortedMakespan
	}

	var totalParamBytes int64
	for _, p := range c.Params {
		totalParamBytes += p.Bytes
	}
	loads := c.PSLoads()
	events := make([]EventOutcome, 0, len(st.eventsHere))
	for _, e := range st.eventsHere {
		out := EventOutcome{Kind: e.Kind, Worker: -1, PS: -1}
		switch e.Kind {
		case WorkerJoin:
			out.Worker = e.Worker
			out.RefetchBytes = totalParamBytes
		case WorkerLeave:
			out.Worker = e.Worker
		case WorkerFail:
			out.Worker = e.Worker
			out.WastedSeconds = e.failPoint() * abortedMakespan
			out.RefetchBytes = totalParamBytes
		case PSShardFail:
			out.PS = e.PS
			out.WastedSeconds = e.failPoint() * abortedMakespan
			out.ReloadSeconds = c.shardReload(e.PS, loads[e.PS])
			out.RefetchBytes = loads[e.PS]
			recovery += out.ReloadSeconds
		case PSRecover:
			out.PS = e.PS
			out.ReloadSeconds = c.shardReload(e.PS, loads[e.PS])
			out.RefetchBytes = loads[e.PS]
			recovery += out.ReloadSeconds
		}
		events = append(events, out)
	}

	err := runner.RunInto(sim.Config{
		Oracle:      c.costTable(),
		Schedule:    opts.Schedule,
		Seed:        opts.Seed,
		Jitter:      jitter,
		ReorderProb: opts.ReorderProb,
		CostScale:   c.eventCostScale(opts, st.degraded),
		Disabled:    c.membershipMask(st.active),
	}, res)
	if err != nil {
		return nil, err
	}
	it := &Iteration{
		Makespan:        recovery + res.Makespan,
		RecvOrder:       res.RecvStartOrder[WorkerDevice(0)],
		ReorderEvents:   res.ReorderEvents,
		WorkerFinish:    make([]float64, 0, c.Config.Workers),
		ActiveWorkers:   st.activeN,
		RecoverySeconds: recovery,
		Events:          events,
	}
	// Straggler effect is measured within the reported run, over the
	// workers that actually executed it.
	minFinish := res.Makespan
	for w := 0; w < c.Config.Workers; w++ {
		f := res.DeviceFinish[WorkerDevice(w)]
		it.WorkerFinish = append(it.WorkerFinish, f)
		if st.active[w] && f < minFinish {
			minFinish = f
		}
	}
	if res.Makespan > 0 {
		it.StragglerPct = (res.Makespan - minFinish) / res.Makespan * 100
	}
	if st.active[0] {
		it.Efficiency = c.iterationEfficiency(res)
	} else {
		// The reference worker did not run; the efficiency metric is
		// undefined this iteration. Aggregates skip the sentinel.
		it.Efficiency = -1
	}
	return it, nil
}

// iterationEfficiency computes E on the worker-0 partition using the
// iteration's measured per-op durations, mirroring §3.2 ("for a given
// iteration, we measure runtime of each op as well as the makespan of that
// iteration and then calculate the bounds"). Durations are indexed by the
// reference partition's op IDs through the Cluster's cached mapping — no
// per-iteration graph rebuild and no string trimming in the loop — and the
// duration table itself is recycled across iterations.
func (c *Cluster) iterationEfficiency(res *sim.Result) float64 {
	ref, toRef := c.effIndex()
	buf := measuredPool.Get().(*timing.Table)
	defer measuredPool.Put(buf)
	if cap(*buf) < ref.Len() {
		*buf = make(timing.Table, ref.Len())
	}
	measured := (*buf)[:ref.Len()]
	clear(measured) // ops without a span (masked) measure zero
	var start, end float64
	first := true
	for _, sp := range res.Spans {
		ri := toRef[sp.Op.ID]
		if ri < 0 {
			continue // other devices, or other iterations of a chained graph
		}
		measured[ri] = sp.End - sp.Start
		if first || sp.Start < start {
			start = sp.Start
			first = false
		}
		if sp.End > end {
			end = sp.End
		}
	}
	return core.Efficiency(ref, measured, end-start)
}

// Experiment mirrors the paper's measurement protocol (§6): discard warmup
// iterations, then record measured iterations; report the mean for
// throughput and the maximum for straggler effect and efficiency deviation.
type Experiment struct {
	// Warmup iterations to discard (the paper discards 2).
	Warmup int
	// Measure iterations to record (the paper records 10).
	Measure int
}

// DefaultExperiment is the paper's 2-warmup/10-measured protocol.
var DefaultExperiment = Experiment{Warmup: 2, Measure: 10}

// Outcome aggregates measured iterations.
type Outcome struct {
	// Iterations holds the measured (post-warmup) iterations.
	Iterations []Iteration
	// MeanThroughput is samples/second averaged over measured iterations.
	MeanThroughput float64
	// MeanMakespan is the average iteration time in seconds.
	MeanMakespan float64
	// MaxStragglerPct is the worst straggler effect observed.
	MaxStragglerPct float64
	// MinEfficiency is the worst scheduling efficiency observed.
	MinEfficiency float64
	// MeanEfficiency is the average scheduling efficiency.
	MeanEfficiency float64
	// UniqueRecvOrders counts distinct worker-0 parameter arrival orders
	// across measured iterations (§2.2's uniqueness observation).
	UniqueRecvOrders int
	// RecoverySeconds totals the membership-event recovery overhead
	// (aborted-attempt waste plus shard reloads) across measured
	// iterations. Zero without membership events.
	RecoverySeconds float64
}

// Run executes the experiment protocol against the cluster.
func (c *Cluster) Run(exp Experiment, opts RunOptions) (*Outcome, error) {
	if exp.Measure < 1 {
		return nil, fmt.Errorf("cluster: experiment needs >= 1 measured iteration")
	}
	var tl *Timeline
	if len(opts.Events) > 0 {
		var err error
		tl, err = NewTimeline(c.Config.Workers, c.Config.PS, opts.Events)
		if err != nil {
			return nil, err
		}
	}
	out := &Outcome{
		MinEfficiency: 1,
		Iterations:    make([]Iteration, 0, exp.Measure),
	}
	makespans := make([]float64, 0, exp.Measure)
	throughputs := make([]float64, 0, exp.Measure)
	effs := make([]float64, 0, exp.Measure)
	orders := make(map[string]bool, exp.Measure)
	batch := c.Config.batch()
	// One Result serves every iteration: its spans are refilled in place.
	res := resultPool.Get().(*sim.Result)
	defer resultPool.Put(res)
	for i := 0; i < exp.Warmup+exp.Measure; i++ {
		iterOpts := opts
		iterOpts.Seed = opts.Seed + int64(i)*7919 // distinct per-iteration stream
		iterOpts.Iteration = i                    // straggler/contention/membership windows index off this
		iterOpts.timeline = tl
		it, err := c.runIteration(iterOpts, res)
		if err != nil {
			return nil, err
		}
		if i < exp.Warmup {
			continue
		}
		out.Iterations = append(out.Iterations, *it)
		makespans = append(makespans, it.Makespan)
		// A chained graph processes batch × iterations samples per worker;
		// only the iteration's active workers contribute samples.
		throughputs = append(throughputs, it.Throughput(batch*c.Config.iterations(), it.ActiveWorkers))
		if it.Efficiency >= 0 {
			effs = append(effs, it.Efficiency)
			if it.Efficiency < out.MinEfficiency {
				out.MinEfficiency = it.Efficiency
			}
		}
		if it.StragglerPct > out.MaxStragglerPct {
			out.MaxStragglerPct = it.StragglerPct
		}
		out.RecoverySeconds += it.RecoverySeconds
		orders[joinKeys(it.RecvOrder)] = true
	}
	out.MeanThroughput = stats.Mean(throughputs)
	out.MeanMakespan = stats.Mean(makespans)
	out.MeanEfficiency = stats.Mean(effs)
	out.UniqueRecvOrders = len(orders)
	return out, nil
}

// joinKeys flattens a key list into one NUL-separated string (a map key for
// order uniqueness counting). One Grow-sized allocation instead of the
// quadratic string concatenation it replaces.
func joinKeys(keys []string) string {
	var b strings.Builder
	n := 0
	for _, k := range keys {
		n += len(k) + 1
	}
	b.Grow(n)
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte(0)
	}
	return b.String()
}
