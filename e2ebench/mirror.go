package main

import (
	"fmt"

	"tictac/internal/cluster"
	"tictac/internal/core"
	"tictac/internal/model"
	"tictac/internal/service"
	"tictac/internal/timing"
)

// The mirror rebuilds, through the library's public API, what tictacd
// computes for a generated request. The verifier compares tictacd's answers
// with it and the traced replay times its calls layer by layer. It covers
// the spec fields the generator sets; anything else is a generator bug and
// is reported as one.

// baseKey names a generated cluster shape.
type baseKey struct {
	model       string
	workers, ps int
}

func keyOf(spec service.WorkloadSpec) baseKey {
	return baseKey{spec.Model, max(spec.Workers, 1), max(spec.PS, 1)}
}

// baseConfig is the homogeneous envG training cluster of spec.
func baseConfig(spec service.WorkloadSpec) (cluster.Config, error) {
	if spec.Mode != "" || spec.Env != "" || spec.BatchFactor != 0 || spec.Iterations != 0 || spec.SharedPSNIC {
		return cluster.Config{}, fmt.Errorf("mirror: spec sets fields the generator never sets: %+v", spec)
	}
	ms, ok := model.ByName(spec.Model)
	if !ok {
		return cluster.Config{}, fmt.Errorf("mirror: unknown model %q", spec.Model)
	}
	k := keyOf(spec)
	return cluster.Config{Model: ms, Mode: model.Training, Workers: k.workers, PS: k.ps, Platform: timing.EnvG()}, nil
}

// platforms is spec's heterogeneous cost model, nil when homogeneous.
func platforms(spec service.WorkloadSpec) *timing.PlatformMap {
	if spec.Overrides == nil || len(spec.Overrides.Devices) == 0 {
		return nil
	}
	base := timing.EnvG()
	m := timing.NewPlatformMap(base)
	for dev, d := range spec.Overrides.Devices {
		m.SetDevice(dev, base.SlowedCompute(d.SlowCompute).SlowedNet(d.SlowNet))
	}
	return m
}

// derived reports whether tictacd serves spec from a cluster derived from
// its base (a cost-model or membership variant of a batch).
func derived(spec service.WorkloadSpec) bool {
	return platforms(spec) != nil || len(spec.Membership) > 0
}

// runOptions is the simulate protocol of spec under schedule sc (nil for
// the unscheduled baseline), with the platform's default jitter.
func runOptions(spec service.WorkloadSpec, sc *core.Schedule) cluster.RunOptions {
	opts := cluster.RunOptions{Schedule: sc, Seed: spec.Seed, Jitter: -1}
	for _, s := range spec.Stragglers {
		opts.Stragglers = append(opts.Stragglers, cluster.Straggler{Worker: s.Worker, Factor: s.Factor, From: s.From, Until: s.Until})
	}
	for _, e := range spec.Membership {
		opts.Events = append(opts.Events, cluster.MembershipEvent{
			Kind: cluster.EventKind(e.Kind), Worker: e.Worker, PS: e.PS, Iteration: e.Iteration,
			FailPoint: e.FailPoint, DegradedFactor: e.DegradedFactor,
		})
	}
	return opts
}

// experiment is spec's simulate protocol: its iteration counts, or the
// paper's 2 warm-up / 10 measured iterations.
func experiment(spec service.WorkloadSpec) cluster.Experiment {
	exp := cluster.DefaultExperiment
	if spec.WarmupIterations > 0 {
		exp.Warmup = spec.WarmupIterations
	}
	if spec.MeasureIterations > 0 {
		exp.Measure = spec.MeasureIterations
	}
	return exp
}

// clusters holds one built cluster per generated shape.
type clusters map[baseKey]*cluster.Cluster

// base returns the homogeneous cluster of spec's shape, building it once.
func (cs clusters) base(spec service.WorkloadSpec) (*cluster.Cluster, error) {
	k := keyOf(spec)
	if c, ok := cs[k]; ok {
		return c, nil
	}
	cfg, err := baseConfig(spec)
	if err != nil {
		return nil, err
	}
	c, err := cluster.Build(cfg)
	if err != nil {
		return nil, err
	}
	cs[k] = c
	return c, nil
}
