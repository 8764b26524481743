package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"tictac/internal/service"
	"tictac/internal/trace"
)

// Workload names accepted by --workload.
const (
	wServeZipf   = "serve-zipf"
	wWhatifBatch = "whatif-batch"
	wFleetZipf   = "fleet-zipf"
)

var workloadNames = []string{wServeZipf, wWhatifBatch, wFleetZipf}

// Traffic shape shared by serve-zipf and fleet-zipf.
const (
	zipfRate    = 100  // mean arrivals per second
	zipfConfigs = 1024 // distinct request configs; 4x the default schedule cache
	zipfWarm    = 2000 // warm-up prefix, replayed before the measured window
	// satPerSecond sizes the saturated phase that follows the window: this
	// many requests per second of window, sent back to back. At 20 s that
	// is 20000 requests, about 8 s on 2 vCPUs, and each of the ten blocks
	// goodput takes its median over holds 100 simulations.
	satPerSecond = 1000
	simEvery     = 20 // one arrival in 20 (5%) is sent to /v1/simulate
)

// Shape of whatif-batch.
const (
	batchWorkers  = 4
	batchVariants = 24
	// A short protocol per variant (1 warm-up, 5 measured iterations) keeps
	// a batch near a tenth of a second on 2 vCPUs, so a window holds well
	// over minBatches.
	batchWarmupIters  = 1
	batchMeasureIters = 5
	minBatches        = 100 // enough for a p90 with 10 samples beyond it
	batchPlan         = 4096
)

var (
	zipfModels   = []string{"AlexNet v2", "Inception v1", "ResNet-50 v1", "VGG-16"}
	zipfPolicies = []string{"tic", "critical-path", "none"}
	// batchModels is the what-if base rotation: the four models, Inception
	// v1 twice. Batch latency has one mode per model; with four equal modes
	// the median would sit on the boundary between the two light models
	// (AlexNet, VGG) and the two heavy ones and jump between them from run
	// to run. Five slots put the median inside the ResNet-50 mode.
	batchModels = []string{"AlexNet v2", "Inception v1", "ResNet-50 v1", "VGG-16", "Inception v1"}
	// batchPolicies are the three policies every what-if batch compares.
	batchPolicies = []string{"tic", "critical-path", "none"}
)

const (
	pathSchedule = "/v1/schedule"
	pathSimulate = "/v1/simulate"
	pathBatch    = "/v1/batch"
)

// request is one generated HTTP request. spec (schedule and simulate) or
// batch (batch) is the structured form the verifier and the traced replay
// mirror through the library; body is what goes on the wire.
type request struct {
	path  string
	body  []byte
	due   time.Duration // open loop: send time relative to the window start
	spec  service.WorkloadSpec
	batch *service.BatchRequest
}

// workload is a generated input set: a warm-up prefix replayed during set-up,
// the requests of the measured window and, for the open-loop workloads, the
// saturated phase that continues the same trace after the window.
type workload struct {
	name string
	open bool // open loop (due times) or closed loop (one client)
	warm []request
	run  []request
	sat  []request
}

// generate builds the named workload from seed. seconds sizes the open-loop
// window; the closed loop gets a fixed plan and runs until time is up.
func generate(name string, seed int64, seconds float64) (*workload, error) {
	switch name {
	case wServeZipf, wFleetZipf:
		return zipfWorkload(name, seed, seconds)
	case wWhatifBatch:
		return batchWorkload(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

// envelope is the canonical request body shape.
type envelope struct {
	Workload service.WorkloadSpec `json:"workload"`
}

func zipfWorkload(name string, seed int64, seconds float64) (*workload, error) {
	nRun, nSat := int(seconds*zipfRate), int(seconds*satPerSecond)
	if nRun < 1 {
		return nil, fmt.Errorf("--seconds %g leaves no requests at %d req/s", seconds, zipfRate)
	}
	tr, err := trace.Generate(trace.GeneratorSpec{
		Kind:     trace.GenZipf,
		Seed:     seed,
		Events:   zipfWarm + nRun + nSat,
		Configs:  zipfConfigs,
		Models:   zipfModels,
		Policies: zipfPolicies,
		Rate:     zipfRate,
	})
	if err != nil {
		return nil, err
	}
	// One arrival in each block of simEvery goes to /v1/simulate, at a
	// position picked by seed: every seed yields the same sample counts, and
	// simulations never bunch up by chance, which would swing the tail from
	// run to run.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed51))
	simWarm, simRun, simSat := spread(rng, zipfWarm), spread(rng, nRun), spread(rng, nSat)

	w := &workload{name: name, open: true}
	// Stretch the window's arrivals so their mean rate is exactly zipfRate:
	// the gaps keep their Poisson shape, and every seed offers the same
	// load over the same window.
	t0 := tr.Events[zipfWarm].T
	scale := 1.0
	if span := tr.Events[zipfWarm+nRun-1].T - t0; nRun > 1 && span > 0 {
		scale = float64(nRun-1) / zipfRate / span
	}
	for i, e := range tr.Events {
		spec := service.WorkloadSpec{Model: e.Model, Policy: e.Policy, Workers: e.Workers, PS: e.PS, Seed: e.Seed}
		body, err := json.Marshal(envelope{Workload: spec})
		if err != nil {
			return nil, err
		}
		r := request{path: pathSchedule, body: body, spec: spec}
		if i < zipfWarm {
			if simWarm[i] {
				r.path = pathSimulate
			}
			w.warm = append(w.warm, r)
			continue
		}
		if j := i - zipfWarm - nRun; j >= 0 {
			if simSat[j] {
				r.path = pathSimulate
			}
			w.sat = append(w.sat, r)
			continue
		}
		if simRun[i-zipfWarm] {
			r.path = pathSimulate
		}
		r.due = time.Duration((e.T - t0) * scale * float64(time.Second))
		w.run = append(w.run, r)
	}
	return w, nil
}

// spread returns one index in each full block of simEvery in [0, n), at a
// position drawn from rng.
func spread(rng *rand.Rand, n int) map[int]bool {
	set := make(map[int]bool, n/simEvery)
	for b := 0; b+simEvery <= n; b += simEvery {
		set[b+rng.Intn(simEvery)] = true
	}
	return set
}

func batchWorkload(seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{name: wWhatifBatch}
	// One warm-up batch per model builds every base cluster.
	for i := range len(zipfModels) {
		r, err := whatifBatch(rng, i)
		if err != nil {
			return nil, err
		}
		w.warm = append(w.warm, r)
	}
	for i := 0; i < batchPlan; i++ {
		r, err := whatifBatch(rng, i)
		if err != nil {
			return nil, err
		}
		w.run = append(w.run, r)
	}
	return w, nil
}

// whatifBatch is one capacity-planning question: a base workload rotating
// over the models at batchWorkers workers, and 24 variants — the three
// policies under five fresh seeds, each policy under a straggler window and
// under a slow-worker override, worker_fail under two policies, and one
// duplicate of the first variant.
func whatifBatch(rng *rand.Rand, i int) (request, error) {
	base := service.WorkloadSpec{
		Model:             batchModels[i%len(batchModels)],
		Workers:           batchWorkers,
		Policy:            batchPolicies[0],
		Seed:              rng.Int63n(1 << 40),
		WarmupIterations:  batchWarmupIters,
		MeasureIterations: batchMeasureIters,
	}
	var vs []service.BatchVariant
	for s := 0; s < 5; s++ {
		seed := rng.Int63n(1 << 40)
		for _, p := range batchPolicies {
			vs = append(vs, service.BatchVariant{Label: fmt.Sprintf("%s/seed%d", p, s), Policy: ptr(p), Seed: ptr(seed)})
		}
	}
	slow := rng.Intn(batchWorkers)
	factor := []float64{1.5, 2, 3}[rng.Intn(3)]
	from := 1 + rng.Intn(batchMeasureIters-2)
	for _, p := range batchPolicies {
		vs = append(vs, service.BatchVariant{
			Label:      p + "/straggler",
			Policy:     ptr(p),
			Stragglers: &[]service.StragglerSpec{{Worker: slow, Factor: factor, From: from, Until: from + 2}},
		})
	}
	dev := fmt.Sprintf("worker:%d", slow)
	for _, p := range batchPolicies {
		vs = append(vs, service.BatchVariant{
			Label:     p + "/slow-worker",
			Policy:    ptr(p),
			Overrides: &service.PlatformOverrides{Devices: map[string]service.DeviceOverride{dev: {SlowCompute: factor}}},
		})
	}
	failed := (slow + 1) % batchWorkers
	failAt := 1 + rng.Intn(batchWarmupIters+batchMeasureIters-1)
	for _, p := range batchPolicies[:2] {
		vs = append(vs, service.BatchVariant{
			Label:      p + "/worker-fail",
			Policy:     ptr(p),
			Membership: &[]service.MembershipEventSpec{{Kind: "worker_fail", Worker: failed, Iteration: failAt}},
		})
	}
	dup := vs[0]
	dup.Label = "duplicate"
	vs = append(vs, dup)
	if len(vs) != batchVariants {
		return request{}, fmt.Errorf("whatif batch has %d variants, want %d", len(vs), batchVariants)
	}
	b := &service.BatchRequest{Workload: &base, Variants: vs}
	body, err := json.Marshal(struct {
		Workload *service.WorkloadSpec  `json:"workload"`
		Variants []service.BatchVariant `json:"variants"`
	}{b.Workload, b.Variants})
	if err != nil {
		return request{}, err
	}
	return request{path: pathBatch, body: body, spec: base, batch: b}, nil
}

// variantSpec is the full workload a batch variant denotes: the variant's
// deltas over the base, exactly as the batch handler applies them.
func variantSpec(base service.WorkloadSpec, v service.BatchVariant) service.WorkloadSpec {
	spec := base
	if v.Policy != nil {
		spec.Policy = *v.Policy
	}
	if v.Seed != nil {
		spec.Seed = *v.Seed
	}
	if v.Overrides != nil {
		spec.Overrides = v.Overrides
	}
	if v.Stragglers != nil {
		spec.Stragglers = *v.Stragglers
	}
	if v.Membership != nil {
		spec.Membership = *v.Membership
	}
	return spec
}

func ptr[T any](v T) *T { return &v }
