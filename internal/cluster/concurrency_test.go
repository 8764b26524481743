package cluster

import (
	"reflect"
	"sync"
	"testing"

	"tictac/internal/core"
	"tictac/internal/model"
	"tictac/internal/sched"
	"tictac/internal/timing"
)

// TestConcurrentRunIterationSharedCluster pins the documented contract that
// a built Cluster (and one computed schedule) may be shared by concurrent
// goroutines: RunIteration only reads the graph, and equal seeds give
// bit-identical iterations regardless of interleaving. Under go test -race
// this is the audit the parallel bench engine relies on for the
// repeated-run experiments (Figure 12, unique orders).
func TestConcurrentRunIterationSharedCluster(t *testing.T) {
	spec, ok := model.ByName("Inception v1")
	if !ok {
		t.Fatal("model missing")
	}
	c, err := Build(Config{
		Model: spec, Mode: model.Training,
		Workers: 2, PS: 1, Platform: timing.EnvG(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := c.ComputeSchedule("tic", 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	const runs = 8
	// Sequential reference: one iteration per seed.
	refs := make([]*Iteration, runs)
	for i := range refs {
		it, err := c.RunIteration(RunOptions{Schedule: sched, Seed: int64(i), Jitter: -1})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = it
	}

	// The concurrent half shares a FRESH schedule (TIC is deterministic, so
	// it is identical to the reference one) whose lazy position index has
	// never been touched — the goroutines race its first build, which the
	// sync.Once in core.Schedule must make safe.
	sched2, err := c.ComputeSchedule("tic", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*Iteration, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = c.RunIteration(RunOptions{Schedule: sched2, Seed: int64(i), Jitter: -1})
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], refs[i]) {
			t.Fatalf("run %d: concurrent iteration differs from sequential reference", i)
		}
	}
}

// TestConcurrentComputeScheduleAllPolicies: ComputeSchedule orders on the
// cluster's cached reference partition, which every caller now shares, and
// the timing-aware policy traces warmup runs through the shared Runner and
// the pooled Result. Every registered policy, computed concurrently (twice
// each) on one fresh cluster, must equal its sequential computation on an
// identical cluster. Under go test -race this audits the shared partition.
func TestConcurrentComputeScheduleAllPolicies(t *testing.T) {
	spec, ok := model.ByName("Inception v1")
	if !ok {
		t.Fatal("model missing")
	}
	cfg := Config{Model: spec, Mode: model.Training, Workers: 2, PS: 1, Platform: timing.EnvG()}
	seqCluster, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	policies := sched.Names()
	want := make([]*core.Schedule, len(policies))
	for i, p := range policies {
		if want[i], err = seqCluster.ComputeSchedule(p, 2, 3); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}

	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const copies = 2
	got := make([]*core.Schedule, copies*len(policies))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = c.ComputeSchedule(policies[i%len(policies)], 2, 3)
		}(i)
	}
	wg.Wait()
	for i := range got {
		p := policies[i%len(policies)]
		if errs[i] != nil {
			t.Fatalf("%s: %v", p, errs[i])
		}
		if core.ScheduleDigest(got[i]) != core.ScheduleDigest(want[i%len(policies)]) {
			t.Fatalf("%s: concurrent schedule differs from the sequential one", p)
		}
	}
}

// TestConcurrentRunDistinctSchedulesSharedRunner: many goroutines run the
// warmup+measure protocol with distinct schedules through one cluster's
// Runner at once, two goroutines per schedule. Each schedule builds its
// compiled-table memo on first touch inside the race, and the pooled
// Results pass between goroutines; every outcome must equal its
// sequential reference.
func TestConcurrentRunDistinctSchedulesSharedRunner(t *testing.T) {
	spec, ok := model.ByName("AlexNet v2")
	if !ok {
		t.Fatal("model missing")
	}
	c, err := Build(Config{Model: spec, Mode: model.Training, Workers: 3, PS: 1, Platform: timing.EnvG()})
	if err != nil {
		t.Fatal(err)
	}
	// Policy "" is the unscheduled baseline; the random seeds give
	// distinct orders.
	type job struct {
		policy string
		seed   int64
	}
	jobs := []job{{"", 0}, {"tic", 1}, {"critical-path", 1}}
	for seed := int64(1); seed <= 6; seed++ {
		jobs = append(jobs, job{"random", seed})
	}
	schedules := func() []*core.Schedule {
		out := make([]*core.Schedule, len(jobs))
		for i, j := range jobs {
			s, err := c.ComputeSchedule(j.policy, 0, j.seed)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = s
		}
		return out
	}
	exp := Experiment{Warmup: 1, Measure: 3}
	run := func(s *core.Schedule, i int) (*Outcome, error) {
		return c.Run(exp, RunOptions{Schedule: s, Seed: int64(100 + i), Jitter: -1, ReorderProb: 0.01})
	}

	seq := schedules()
	want := make([]*Outcome, len(jobs))
	for i, s := range seq {
		if want[i], err = run(s, i); err != nil {
			t.Fatal(err)
		}
	}

	fresh := schedules() // untouched memos: their first build races below
	const copies = 2
	got := make([]*Outcome, copies*len(jobs))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j := i / copies // a schedule's copies start back to back
			got[i], errs[i] = run(fresh[j], j)
		}(i)
	}
	wg.Wait()
	for i := range got {
		j := i / copies
		if errs[i] != nil {
			t.Fatalf("job %d: %v", j, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[j]) {
			t.Fatalf("job %d (%s/%d): concurrent outcome differs from the sequential one", j, jobs[j].policy, jobs[j].seed)
		}
	}
}
