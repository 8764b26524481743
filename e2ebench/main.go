// Command e2ebench is tictacd's end-to-end benchmark. It starts tictacd in
// this process on real loopback sockets (one node, or a three-node fleet),
// drives one generated workload at it from a single client, checks every
// answer, and prints each metric by name with its unit and sample count.
// The last line of standard output is the result as one JSON object.
//
// Run it from the repository root:
//
//	bash e2ebench/run.sh --workload serve-zipf --seed 1 --seconds 20 --trace 0
//
// --trace 1 is the traced run: it replays the same generated inputs with
// spans recorded around the benchmark's calls into each layer and reports
// the per-layer metrics and the accounting of end-to-end time. See
// README.md for the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"
)

// setupRuns is how many times a run sets up from scratch; setup_s is their
// median and the last set-up serves the measured window.
const setupRuns = 3

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	conns    int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", wServeZipf, fmt.Sprintf("workload to run: %v", workloadNames))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: every generated input derives from it")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	fs.StringVar(&cfg.out, "out", ".bench_out", "directory for the span file and CPU profile of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "e2ebench: --trace must be 0 or 1")
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be > 0")
		return 2
	}
	cfg.trace = trace == 1
	cfg.conns = runtime.NumCPU()

	res, err := bench(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints metrics as they are added and collects them for the JSON
// line.
type report struct {
	out  io.Writer
	vals map[string]metric
}

func newReport(out io.Writer) *report { return &report{out: out, vals: make(map[string]metric)} }

// add records a metric for the JSON line and prints it.
func (r *report) add(name string, value float64, unit string, n int, note string) {
	r.vals[name] = metric{Value: value, Unit: unit}
	r.print(name, value, unit, n, note)
}

// print prints a metric with its sample count (n < 0: none).
func (r *report) print(name string, value float64, unit string, n int, note string) {
	samples := ""
	if n >= 0 {
		samples = fmt.Sprintf("n=%d", n)
	}
	fmt.Fprintf(r.out, "  %-36s %14.6g %-6s %-8s %s\n", name, value, unit, samples, note)
}

// pass is one measured window on one deployment.
type pass struct {
	origin  time.Time
	outs    []outcome
	wall    time.Duration // window start to the last response
	delta   counters      // service counters over the window
	total   counters      // service counters since the deployment started
	allocB  float64       // heap bytes allocated in the window (whole process)
	gcCPU   float64       // GC CPU seconds in the window
	allCPU  float64       // available CPU seconds in the window
	rssPeak int64
	steal   float64   // share of CPU time stolen by the hypervisor in the window
	satOuts []outcome // the saturated phase after an open-loop window
}

func bench(cfg config, stdout io.Writer) (*result, error) {
	h := hostInfo(cfg.workload, cfg.seed)
	hb, _ := json.Marshal(h)
	fmt.Fprintf(stdout, "e2ebench %s seed=%d seconds=%g trace=%v\nhost %s\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, hb)

	w, err := generate(cfg.workload, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	nodes := 1
	if cfg.workload == wFleetZipf {
		nodes = 3
	}
	fmt.Fprintf(stdout, "generated %d warm-up and %d window requests (open loop: %v, %d connections)\n",
		len(w.warm), len(w.run), w.open, cfg.conns)

	// Decided before the window: which answers to keep whole for checking.
	recompute := map[int]bool{}
	single := map[int]bool{}
	twins := map[int]bool{}
	if w.open {
		recompute = sampleDistinct(cfg.seed^0x7ec0, w.run, recomputeSample)
		if nodes > 1 {
			single = sampleDistinct(cfg.seed^0x517e, w.run, singleSample)
		}
	} else {
		twins = sampleDistinct(cfg.seed^0x7a1, w.run[:minBatches], twinSample)
	}
	keep := func(i int) bool { return !w.open || recompute[i] }

	runs := setupRuns
	if cfg.trace {
		runs = 1
	}
	setups, d, warmOuts, err := setUp(w, nodes, cfg.conns, runs, nil)
	if err != nil {
		return nil, err
	}
	cl := newClient(d.urls, cfg.conns, false)
	p := measure(d, w, cl, cfg, keep)
	if w.open && !cfg.trace {
		runtime.GC()
		p.satOuts = cl.replayAll(w.sat, cfg.conns)
	}

	// Verification, outside the timed window.
	f := newFailures()
	all := append(append([]request(nil), w.warm...), w.run...)
	allOuts := append(append([]outcome(nil), warmOuts...), p.outs...)
	if p.satOuts != nil {
		all = append(all, w.sat...)
		allOuts = append(allOuts, p.satOuts...)
	}
	off := len(w.warm)
	checkStatus(allOuts, f)
	checkSameBytes(all, allOuts, f)
	if w.open {
		if err := checkRecompute(recompute, off, w.run, p.outs, clusters{}, f); err != nil {
			d.close()
			return nil, err
		}
		if nodes > 1 {
			checkSingleNode(single, off, w.run, p.outs, f)
		}
	} else {
		checkBatches(off, w.run, p.outs, f)
		if err := checkTwins(cl, twins, off, w.run, p.outs, f); err != nil {
			d.close()
			return nil, err
		}
	}
	cl.close()
	d.close()

	attempted := len(allOuts)
	rep := newReport(stdout)
	if !cfg.trace {
		fmt.Fprintln(stdout, "end-to-end metrics:")
		if err := endToEnd(rep, w, p, setups, attempted, f.count()); err != nil {
			return nil, err
		}
	} else {
		fmt.Fprintln(stdout, "per-layer metrics:")
		n, err := traced(rep, cfg, w, nodes, p, f)
		if err != nil {
			return nil, err
		}
		attempted += n
	}
	fmt.Fprintf(stdout, "verified %d answers: %d failed\n", attempted, f.count())
	for _, m := range f.msgs {
		fmt.Fprintf(stdout, "  FAIL %s\n", m)
	}
	return &result{Correct: f.count() == 0, Attempted: attempted, Failed: f.count(), Metrics: rep.vals}, nil
}

// setUp starts a deployment and replays the warm-up prefix until the caches
// hold the workload's steady state, runs times from scratch. It returns each
// set-up's seconds and the last deployment with its warm-up answers.
func setUp(w *workload, nodes, conns, runs int, wrap func(int, http.Handler) http.Handler) ([]float64, *deployment, []outcome, error) {
	var secs []float64
	var d *deployment
	var outs []outcome
	for i := 0; i < runs; i++ {
		if d != nil {
			d.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		d, err = deploy(nodes, wrap)
		if err != nil {
			return nil, nil, nil, err
		}
		cl := newClient(d.urls, conns, false)
		outs = cl.replayAll(w.warm, conns)
		cl.close()
		secs = append(secs, time.Since(t0).Seconds())
	}
	return secs, d, outs, nil
}

// measure runs the workload's measured window against d.
func measure(d *deployment, w *workload, cl *client, cfg config, keep func(int) bool) pass {
	// Start the window from a collected heap so set-up garbage is not
	// charged to it.
	runtime.GC()
	debug.FreeOSMemory()
	before := d.counters()
	m0 := readRuntime()
	st0, tot0 := cpuTimes()
	stopRSS := sampleRSS()
	var p pass
	p.origin = time.Now()
	if w.open {
		p.outs = cl.openLoop(p.origin, w.run, cfg.conns, keep)
	} else {
		p.outs = cl.closedLoop(p.origin, w.run, cfg.seconds, minBatches, keep)
	}
	p.rssPeak = stopRSS()
	st1, tot1 := cpuTimes()
	p.steal = ratio(float64(st1-st0), float64(tot1-tot0))
	m1 := readRuntime()
	p.total = d.counters()
	p.delta = p.total.minus(before)
	p.allocB = m1[0] - m0[0]
	p.gcCPU = m1[1] - m0[1]
	p.allCPU = m1[2] - m0[2]
	for i := range p.outs {
		p.wall = max(p.wall, p.outs[i].done)
	}
	return p
}

var runtimeMetrics = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() [3]float64 {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	var v [3]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return v
}

// sampleRSS samples the resident set every 10ms until the returned stop
// function is called; stop returns the peak.
func sampleRSS() func() int64 {
	done := make(chan struct{})
	peak := make(chan int64)
	go func() {
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		best := rssBytes()
		for {
			select {
			case <-done:
				peak <- max(best, rssBytes())
				return
			case <-t.C:
				best = max(best, rssBytes())
			}
		}
	}()
	return func() int64 {
		close(done)
		return <-peak
	}
}

// latencies returns the millisecond latencies (from due time) of the
// answered requests to path.
func latencies(w *workload, outs []outcome, path string) []float64 {
	var ms []float64
	for i := range outs {
		if w.run[i].path == path && outs[i].ok() {
			ms = append(ms, float64(outs[i].latency())/1e6)
		}
	}
	return ms
}

// lateness returns how late, in milliseconds, the generator released each
// request.
func lateness(outs []outcome) []float64 {
	ms := make([]float64, len(outs))
	for i := range outs {
		ms[i] = float64(outs[i].release-outs[i].due) / 1e6
	}
	return ms
}

// doneTimes returns when each correct answer completed.
func doneTimes(outs []outcome) []time.Duration {
	var ts []time.Duration
	for i := range outs {
		if outs[i].ok() {
			ts = append(ts, outs[i].done)
		}
	}
	return ts
}

func answered(outs []outcome) int {
	n := 0
	for i := range outs {
		if outs[i].ok() {
			n++
		}
	}
	return n
}

// endToEnd adds the untraced run's metrics: the gated ones, which every
// workload has, and prints the workload-specific ones beside them.
func endToEnd(rep *report, w *workload, p pass, setups []float64, attempted, failed int) error {
	rep.add("setup_s", median(setups), "s", len(setups), "median set-up: server start and warm-up prefix")
	type quantile struct {
		name string
		ms   []float64
		p    float64
	}
	var qs []quantile
	var goodput, winRate float64
	var n int
	var note string
	if w.open {
		// goodput is measured with the CPUs saturated; the open-loop window
		// answers at the offered 100 req/s unless a backlog grows.
		n = answered(p.satOuts)
		goodput = medianRate(doneTimes(p.satOuts), len(w.sat)/rateBlocks, 1)
		note = fmt.Sprintf("answers/s of the saturated phase, median of %d blocks", rateBlocks)
		winRate = float64(answered(p.outs)) / p.wall.Seconds()
		sched, sim, late := latencies(w, p.outs, pathSchedule), latencies(w, p.outs, pathSimulate), lateness(p.outs)
		qs = []quantile{
			{"sched_p50_ms", sched, 0.5}, {"sched_p95_ms", sched, 0.95}, {"sched_p99_ms", sched, 0.99},
			{"sim_p50_ms", sim, 0.5}, {"sim_p90_ms", sim, 0.9},
			{"loadgen.late_p50_ms", late, 0.5}, {"loadgen.late_p99_ms", late, 0.99},
		}
	} else {
		batch := latencies(w, p.outs, pathBatch)
		qs = []quantile{{"batch_p50_ms", batch, 0.5}, {"batch_p90_ms", batch, 0.9}}
		n = answered(p.outs) * batchVariants
		goodput = medianRate(doneTimes(p.outs), minBatches/rateBlocks, batchVariants)
		note = fmt.Sprintf("= variants_per_s, median of blocks of %d batches", minBatches/rateBlocks)
	}
	for _, q := range qs {
		v, err := percentile(q.ms, q.p)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		rep.print(q.name, v, "ms", len(q.ms), "")
	}
	rep.add("goodput_per_s", goodput, "1/s", n, note)
	if w.open {
		rep.print("window_answers_per_s", winRate, "1/s", answered(p.outs), "correct answers per second of the open-loop window")
	}
	rep.add("mem_peak_mb", float64(p.rssPeak)/1e6, "MB", -1, "peak RSS of the process in the window")
	rep.print("fail_ratio", ratio(float64(failed), float64(attempted)), "ratio", attempted, "")
	rep.print("host.cpu_steal_share", p.steal, "ratio", -1, "CPU time the hypervisor gave elsewhere in the window")
	return nil
}

// outDir creates the traced run's output directory.
func outDir(cfg config) (string, error) {
	dir := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
