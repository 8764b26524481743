package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"tictac/internal/bench/engine"
	"tictac/internal/cluster"
	"tictac/internal/core"
	"tictac/internal/sched"
	"tictac/internal/service"
	"tictac/internal/sim"
)

// The traced run. After the untraced window (which gives the counters and
// the untraced end-to-end time), it
//
//  1. sets up a fresh deployment whose handlers are wrapped to record a span
//     per ServeHTTP call, and replays the same window with the request id on
//     each request: spans request ⊃ loadgen.late, client.queue, http ⊃
//     service.ServeHTTP ⊃ fleet.owner (the forwarded hop's owner);
//  2. replays the same requests in process, one at a time, against shadow
//     services fed the same warm-up, timing the benchmark's own calls into
//     each layer's public functions: service.decode, service.ServeHTTP
//     (in-process), cluster.Build, core.GraphDigest,
//     Cluster.ComputeSchedule, sched.Policy.Order, Cluster.RunIteration,
//     Cluster.Run, sim.Runner.Run, Cluster.WithPlatforms and engine.Map.
//
// The accounting sets the layer times from both against the traced
// end-to-end time: what the layers measured alone do not explain is the
// residual (contention between concurrent requests, GC, response encoding).

// perLayer lists the traced run's metrics in print order. Each workload
// reports all of them; a layer the workload does not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"loadgen.late_p99_ms", "ms"},
	{"net.overhead_us_p50", "us"},
	{"service.hit_us_p50", "us"},
	{"service.decode_us_p50", "us"},
	{"cache.sched_hit_ratio", "ratio"},
	{"cache.cluster_hit_ratio", "ratio"},
	{"cache.evictions", "count"},
	{"cache.coalesced", "count"},
	{"cluster.build_ms_p50", "ms"},
	{"cluster.builds", "count"},
	{"core.digest_ms_p50", "ms"},
	{"cluster.schedule_ms_p50", "ms"},
	{"sched.order_ms_p50", "ms"},
	{"cluster.iteration_ms_p50", "ms"},
	{"cluster.run_ms_p50", "ms"},
	{"sim.iter_us_p50", "us"},
	{"cluster.derive_ms_p50", "ms"},
	{"engine.busy_share", "ratio"},
	{"batch.distinct_ratio", "ratio"},
	{"batch.schedule_builds_per_variant", "ratio"},
	{"fleet.forwarded_share", "ratio"},
	{"fleet.hop_ms_p50", "ms"},
	{"fleet.hedges", "count"},
	{"fleet.forward_failures", "count"},
	{"go.alloc_kb_per_req", "KB"},
	{"go.gc_cpu_share", "ratio"},
	{"accounting.residual_share", "ratio"},
	{"accounting.trace_overhead_share", "ratio"},
}

// layerRow is one line of the accounting table. Summed rows are disjoint
// parts of the end-to-end time; the others are parts of a summed row, or
// the handler time measured under load, shown for comparison.
type layerRow struct {
	name   string
	total  time.Duration
	summed bool
	note   string
}

// tracedRun holds everything the traced window and the replay produced.
type tracedRun struct {
	log     spanLog
	self    []time.Duration // self time of each span in log
	outs    []outcome
	replay  map[string][]time.Duration // per layer: the durations its medians come from
	rows    []layerRow
	e2e     time.Duration
	busy    time.Duration // summed variant compute inside engine.Map
	poolCap time.Duration // engine.Map wall time × pool width
}

// traced runs the traced window and the in-process replay and reports the
// per-layer metrics. p is the untraced window. It returns how many answers
// it checked.
func traced(rep *report, cfg config, w *workload, nodes int, p pass, f *failures) (int, error) {
	dir, err := outDir(cfg)
	if err != nil {
		return 0, err
	}
	ss := &serverSpans{}
	_, d, warmOuts, err := setUp(w, nodes, cfg.conns, 1, ss.wrap)
	if err != nil {
		return 0, err
	}
	ss.take() // warm-up spans are not part of the window
	cl := newClient(d.urls, cfg.conns, true)
	prof, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		d.close()
		return 0, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		d.close()
		return 0, err
	}
	tp := measure(d, w, cl, cfg, func(int) bool { return false })
	pprof.StopCPUProfile()
	cl.close()
	d.close()
	if err := prof.Close(); err != nil {
		return 0, err
	}
	server := ss.take()

	// The traced window must give the untraced window's answers.
	off := len(w.warm) + len(p.outs)
	for i := range tp.outs {
		switch {
		case !tp.outs[i].ok():
			f.add(off+i, "traced window: %v", tp.outs[i].err)
		case i < len(p.outs) && p.outs[i].ok() && tp.outs[i].hash != p.outs[i].hash:
			f.add(off+i, "traced window answer differs from the untraced window's")
		}
	}

	t := &tracedRun{outs: tp.outs, replay: make(map[string][]time.Duration)}
	t.socketSpans(tp, server)
	if w.open {
		err = t.replayZipf(w, nodes, warmOuts, off, f)
	} else {
		err = t.replayBatches(w)
	}
	if err != nil {
		return 0, err
	}
	t.account(w, p)

	meta := map[string]any{"host": hostInfo(cfg.workload, cfg.seed), "window_seconds": cfg.seconds}
	spanPath := filepath.Join(dir, "spans.json")
	if err := writeChrome(spanPath, t.log.spans, meta); err != nil {
		return 0, err
	}
	if err := t.metrics(rep, w, nodes, p); err != nil {
		return 0, err
	}
	t.printAccounting(rep.out, w, p)
	fmt.Fprintf(rep.out, "wrote %s (%d spans) and %s\n", spanPath, len(t.log.spans), filepath.Join(dir, "cpu.pprof"))
	return len(tp.outs), nil
}

// socketSpans builds the traced window's span tree from the client's
// timestamps and the server wrapper's spans.
func (t *tracedRun) socketSpans(tp pass, server []serverSpan) {
	rel := func(at time.Time) time.Duration { return at.Sub(tp.origin) }
	entry := make(map[int]serverSpan)
	fwd := make(map[int][]serverSpan) // forwarded-in spans per node
	for _, s := range server {
		switch {
		case s.req >= 0:
			entry[s.req] = s
		case s.fwd:
			fwd[s.node] = append(fwd[s.node], s)
		}
	}
	used := make(map[*serverSpan]bool)
	for i := range t.outs {
		o := &t.outs[i]
		if !o.ok() {
			continue
		}
		root := t.log.add(span{name: "request", req: i, parent: -1, pass: passSocket, start: o.due, end: o.done})
		t.log.add(span{name: "loadgen.late", req: i, parent: root, pass: passSocket, start: o.due, end: o.release})
		t.log.add(span{name: "client.queue", req: i, parent: root, pass: passSocket, start: o.release, end: o.send})
		h := t.log.add(span{name: "http", req: i, parent: root, pass: passSocket, start: o.send, end: o.done})
		e, ok := entry[i]
		if !ok {
			continue
		}
		sh := t.log.add(span{name: "service.ServeHTTP", req: i, parent: h, pass: passSocket, start: rel(e.start), end: rel(e.end)})
		if o.via == "" {
			continue
		}
		owner, _ := strconv.Atoi(strings.TrimPrefix(o.via, "node"))
		for k := range fwd[owner] {
			s := &fwd[owner][k]
			if !used[s] && !s.start.Before(e.start) && !s.end.After(e.end) {
				used[s] = true
				t.log.add(span{name: "fleet.owner", req: i, parent: sh, pass: passSocket, start: rel(s.start), end: rel(s.end)})
				break
			}
		}
	}
}

// timer records replay spans relative to the replay's start.
type timer struct {
	t      *tracedRun
	origin time.Time
}

// call times fn as a replay span. Window requests (req >= 0) feed the
// layer medians; so do the warm-up's cluster builds and digests, which are
// set-up work.
func (tm *timer) call(name string, req, parent int, fn func() error) error {
	start := time.Since(tm.origin)
	err := fn()
	end := time.Since(tm.origin)
	tm.t.log.add(span{name: name, req: req, parent: parent, pass: passReplay, start: start, end: end})
	if req >= 0 || name == "cluster.build" || name == "core.digest" {
		tm.t.replay[name] = append(tm.t.replay[name], end-start)
	}
	return err
}

func (tm *timer) root(req int) int {
	at := time.Since(tm.origin)
	return tm.t.log.add(span{name: "replay", req: req, parent: -1, pass: passReplay, start: at, end: at})
}

func (tm *timer) close(root int) { tm.t.log.spans[root].end = time.Since(tm.origin) }

// serve runs one request through an in-process handler.
func serve(h http.Handler, r request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)))
	return rec
}

// decodeStrict decodes a request body the way tictacd does.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// replayZipf replays the warm-up and the traced window, request by request,
// on shadow services: one per node, each fed the requests its node served,
// so each shadow's caches follow its node's.
func (t *tracedRun) replayZipf(w *workload, nodes int, warmOuts []outcome, off int, f *failures) error {
	shadows := make([]*service.Service, nodes)
	handlers := make([]http.Handler, nodes)
	for i := range shadows {
		shadows[i] = service.New(service.Options{})
		handlers[i] = shadows[i].Handler()
	}
	servedBy := func(i int, o *outcome) int {
		if o.via != "" {
			n, _ := strconv.Atoi(strings.TrimPrefix(o.via, "node"))
			return n
		}
		return i % nodes
	}
	cs := clusters{}
	type schedKey struct {
		k      baseKey
		policy string
		seed   int64
	}
	schedules := make(map[schedKey]*core.Schedule)
	runners := make(map[baseKey]*sim.Runner)
	tm := &timer{t: t, origin: time.Now()}

	// step replays one request; req < 0 marks the untimed warm-up.
	step := func(req int, r request, node int) error {
		root := -1
		if req >= 0 {
			root = tm.root(req)
			defer tm.close(root)
			var sr service.ScheduleRequest
			if err := tm.call("service.decode", req, root, func() error { return decodeStrict(r.body, &sr) }); err != nil {
				return err
			}
		}
		s, h := shadows[node], handlers[node]
		cb0, sb0 := s.BuildCounts()
		name := "service.ServeHTTP"
		start := time.Since(tm.origin)
		rec := serve(h, r)
		end := time.Since(tm.origin)
		cached := cachedFlag(rec.Body.Bytes())
		if cached && r.path == pathSchedule {
			name = "service.hit"
		}
		if req >= 0 {
			t.log.add(span{name: name, req: req, parent: root, pass: passReplay, start: start, end: end})
			if name == "service.hit" {
				t.replay[name] = append(t.replay[name], end-start)
			}
			o := &t.outs[req]
			if rec.Code != http.StatusOK || sha256.Sum256(normalize(rec.Body.Bytes())) != o.hash {
				f.add(off+req, "in-process answer differs from the socket answer")
			}
		}
		cb1, sb1 := s.BuildCounts()
		if req >= 0 && r.path == pathSchedule && !cached {
			// The hit path this request also paid: the same call again.
			if err := tm.call("service.hit", req, root, func() error { serve(h, r); return nil }); err != nil {
				return err
			}
		}
		spec := r.spec
		k := keyOf(spec)
		if cb1 > cb0 {
			cfg, err := baseConfig(spec)
			if err != nil {
				return err
			}
			var c *cluster.Cluster
			if err := tm.call("cluster.build", req, root, func() (err error) { c, err = cluster.Build(cfg); return }); err != nil {
				return err
			}
			tm.call("core.digest", req, root, func() error { core.GraphDigest(c.Graph); return nil })
			cs[k] = c
		}
		if req < 0 {
			return nil
		}
		c, err := cs.base(spec)
		if err != nil {
			return err
		}
		runner := runners[k]
		if runner == nil {
			if runner, err = sim.NewRunner(c.Graph); err != nil {
				return err
			}
			runners[k] = runner
		}
		sk := schedKey{k, spec.Policy, spec.Seed}
		sc, have := schedules[sk]
		if sb1 > sb0 || !have {
			name := "cluster.schedule"
			if sb1 == sb0 {
				name = "mirror.schedule" // the server had it cached; the run below needs it
			}
			if err := tm.call(name, req, root, func() (err error) { sc, err = c.ComputeSchedule(spec.Policy, spec.Warmup, spec.Seed); return }); err != nil {
				return err
			}
			schedules[sk] = sc
		}
		if sb1 > sb0 {
			if err := t.order(tm, req, root, c, spec); err != nil {
				return err
			}
			if err := tm.call("cluster.iteration", req, root, func() error {
				_, err := c.RunIteration(cluster.RunOptions{Schedule: sc, Seed: spec.Seed, Jitter: 0})
				return err
			}); err != nil {
				return err
			}
			if err := tm.call("sim.iter", req, root, func() error {
				_, err := runner.Run(sim.Config{Oracle: c.Config.Platform.Oracle(), Schedule: sc, Seed: spec.Seed})
				return err
			}); err != nil {
				return err
			}
		}
		if r.path == pathSimulate {
			if err := tm.call("cluster.run", req, root, func() error {
				_, err := c.Run(experiment(spec), runOptions(spec, sc))
				return err
			}); err != nil {
				return err
			}
			if err := tm.call("sim.iter", req, root, func() error {
				_, err := runner.Run(sim.Config{Oracle: c.Config.Platform.Oracle(), Schedule: sc, Seed: spec.Seed, Jitter: c.Config.Platform.Jitter})
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	}
	for i, r := range w.warm {
		if err := step(-1, r, servedBy(i, &warmOuts[i])); err != nil {
			return err
		}
	}
	for i := range t.outs {
		if !t.outs[i].ok() {
			continue
		}
		if err := step(i, w.run[i], servedBy(i, &t.outs[i])); err != nil {
			return err
		}
	}
	return nil
}

// order times the policy's ordering alone: sched.Policy.Order on the
// reference worker, the step ComputeSchedule wraps.
func (t *tracedRun) order(tm *timer, req, root int, c *cluster.Cluster, spec service.WorkloadSpec) error {
	if spec.Policy == sched.None {
		return nil
	}
	pol, err := sched.New(spec.Policy, spec.Seed)
	if err != nil {
		return err
	}
	ref := c.ReferenceWorker()
	plat := c.Config.Platform
	if c.Config.Platforms != nil {
		plat = c.Config.Platforms.For(cluster.WorkerDevice(0))
	}
	err = tm.call("sched.order", req, root, func() error { _, err := pol.Order(ref, &plat); return err })
	return err
}

// replayBatches replays each answered window batch: decode, then the
// distinct variants fanned out on engine.Map exactly as the batch handler
// does (derive the variant's cluster when it needs one, compute its
// schedule, run the protocol).
func (t *tracedRun) replayBatches(w *workload) error {
	cs := clusters{}
	tm := &timer{t: t, origin: time.Now()}
	for _, m := range zipfModels {
		spec := service.WorkloadSpec{Model: m, Workers: batchWorkers}
		cfg, err := baseConfig(spec)
		if err != nil {
			return err
		}
		var c *cluster.Cluster
		if err := tm.call("cluster.build", -1, -1, func() (err error) { c, err = cluster.Build(cfg); return }); err != nil {
			return err
		}
		tm.call("core.digest", -1, -1, func() error { core.GraphDigest(c.Graph); return nil })
		cs[keyOf(spec)] = c
	}
	runners := make(map[baseKey]*sim.Runner)
	for i := range t.outs {
		if !t.outs[i].ok() {
			continue
		}
		r := w.run[i]
		root := tm.root(i)
		var br service.BatchRequest
		if err := tm.call("service.decode", i, root, func() error { return decodeStrict(r.body, &br) }); err != nil {
			return err
		}
		var specs []service.WorkloadSpec
		seen := make(map[string]bool)
		for _, v := range r.batch.Variants {
			spec := variantSpec(*r.batch.Workload, v)
			key, err := json.Marshal(spec)
			if err != nil {
				return err
			}
			if !seen[string(key)] {
				seen[string(key)] = true
				specs = append(specs, spec)
			}
		}
		base, err := cs.base(r.spec)
		if err != nil {
			return err
		}
		mapStart := time.Since(tm.origin)
		// Each point returns its own spans; the log is not shared with the pool.
		outs, err := engine.Map(0, len(specs), func(k int) ([]span, error) {
			var vt []span
			at := func(name string, fn func() error) error {
				s := span{name: name, req: i, pass: passReplay, start: time.Since(tm.origin)}
				err := fn()
				s.end = time.Since(tm.origin)
				vt = append(vt, s)
				return err
			}
			spec := specs[k]
			c := base
			if derived(spec) {
				if err := at("cluster.derive", func() (err error) { c, err = base.WithPlatforms(base.Config.Platform, platforms(spec)); return }); err != nil {
					return vt, err
				}
			}
			var sc *core.Schedule
			if err := at("cluster.schedule", func() (err error) { sc, err = c.ComputeSchedule(spec.Policy, spec.Warmup, spec.Seed); return }); err != nil {
				return vt, err
			}
			err := at("cluster.run", func() error { _, err := c.Run(experiment(spec), runOptions(spec, sc)); return err })
			return vt, err
		})
		mapEnd := time.Since(tm.origin)
		if err != nil {
			return err
		}
		em := t.log.add(span{name: "engine.map", req: i, parent: root, pass: passReplay, start: mapStart, end: mapEnd})
		for _, vt := range outs {
			for _, s := range vt {
				s.parent = em
				t.log.add(s)
				t.replay[s.name] = append(t.replay[s.name], s.dur())
				t.busy += s.dur()
			}
		}
		t.poolCap += (mapEnd - mapStart) * time.Duration(min(engine.DefaultJobs(), len(specs)))
		t.replay["engine.map"] = append(t.replay["engine.map"], mapEnd-mapStart)

		// The ordering and one simulator run alone, for the first variant.
		spec := specs[0]
		k := keyOf(spec)
		if err := t.order(tm, i, root, base, spec); err != nil {
			return err
		}
		runner := runners[k]
		if runner == nil {
			if runner, err = sim.NewRunner(base.Graph); err != nil {
				return err
			}
			runners[k] = runner
		}
		sc, err := base.ComputeSchedule(spec.Policy, spec.Warmup, spec.Seed)
		if err != nil {
			return err
		}
		if err := tm.call("sim.iter", i, root, func() error {
			_, err := runner.Run(sim.Config{Oracle: base.Config.Platform.Oracle(), Schedule: sc, Seed: spec.Seed, Jitter: base.Config.Platform.Jitter})
			return err
		}); err != nil {
			return err
		}
		tm.close(root)
	}
	return nil
}

// account builds the accounting table for the traced window.
func (t *tracedRun) account(w *workload, p pass) {
	t.self = selfTimes(t.log.spans)
	self := t.self
	bySelf := make(map[string]time.Duration)
	var hop, handler time.Duration
	for i, s := range t.log.spans {
		if s.pass != passSocket {
			continue
		}
		switch s.name {
		case "request":
			t.e2e += s.dur()
		case "service.ServeHTTP":
			if t.outs[s.req].via != "" {
				hop += self[i]
			} else {
				handler += self[i]
			}
		case "fleet.owner":
			handler += self[i]
		default:
			bySelf[s.name] += self[i]
		}
	}
	total := t.windowTotal
	t.rows = []layerRow{
		{"loadgen.late", bySelf["loadgen.late"], true, "due to released"},
		{"client.queue", bySelf["client.queue"], true, "released to sent: waiting for a free connection"},
		{"net", bySelf["http"], true, "socket round trip minus the server's ServeHTTP"},
	}
	if w.open {
		t.rows = append(t.rows,
			layerRow{"fleet.hop", hop, true, "entry node's ServeHTTP minus the owner's, forwarded requests"},
			layerRow{"service.hit", total("service.hit"), true, "in-process hit path each /v1/schedule pays"},
			layerRow{"cluster.build", total("cluster.build"), true, "graph parses the shadow service did"},
			layerRow{"core.digest", total("core.digest"), true, ""},
			layerRow{"cluster.schedule", total("cluster.schedule"), true, "schedule-cache misses"},
			layerRow{"cluster.iteration", total("cluster.iteration"), true, "predicted makespan of each miss"},
			layerRow{"cluster.run", total("cluster.run"), true, "/v1/simulate protocol runs"},
			layerRow{"service.decode", total("service.decode"), false, "part of service.hit"},
			layerRow{"sched.order", total("sched.order"), false, "part of cluster.schedule"},
			layerRow{"sim.iter", total("sim.iter"), false, "part of cluster.iteration and cluster.run"},
			layerRow{"handler under load", handler, false, "ServeHTTP self time in the socket window, which the rows above predict"},
		)
	} else {
		t.rows = append(t.rows,
			layerRow{"service.decode", total("service.decode"), true, "BatchRequest decode"},
			layerRow{"engine.map", total("engine.map"), true, "wall time of the variant fan-out"},
			layerRow{"cluster.derive", total("cluster.derive"), false, "part of engine.map (summed over the pool)"},
			layerRow{"cluster.schedule", total("cluster.schedule"), false, "part of engine.map (summed over the pool)"},
			layerRow{"cluster.run", total("cluster.run"), false, "part of engine.map (summed over the pool)"},
			layerRow{"handler under load", handler, false, "ServeHTTP self time in the socket window, which the rows above predict"},
		)
	}
}

// windowTotal sums a replay layer over the window requests only (the
// warm-up's builds are set-up, not window time).
func (t *tracedRun) windowTotal(name string) time.Duration {
	var d time.Duration
	for _, s := range t.log.spans {
		if s.pass == passReplay && s.name == name && s.req >= 0 {
			d += s.dur()
		}
	}
	return d
}

func (t *tracedRun) layerSum() time.Duration {
	var d time.Duration
	for _, r := range t.rows {
		if r.summed {
			d += r.total
		}
	}
	return d
}

func meanLatency(outs []outcome) time.Duration {
	var d time.Duration
	n := 0
	for i := range outs {
		if outs[i].ok() {
			d += outs[i].latency()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return d / time.Duration(n)
}

func (t *tracedRun) printAccounting(out io.Writer, w *workload, p pass) {
	fmt.Fprintf(out, "accounting (%s, traced window, %d answers):\n", w.name, answered(t.outs))
	fmt.Fprintf(out, "  %-20s %12s %8s\n", "layer", "seconds", "share")
	for _, r := range t.rows {
		mark := " "
		if !r.summed {
			mark = "~"
		}
		fmt.Fprintf(out, "  %s%-19s %12.6f %7.2f%%  %s\n", mark, r.name, r.total.Seconds(), 100*ratio(float64(r.total), float64(t.e2e)), r.note)
	}
	sumL := t.layerSum()
	fmt.Fprintf(out, "  %-20s %12.6f %7.2f%%  rows without ~\n", "sum of layers", sumL.Seconds(), 100*ratio(float64(sumL), float64(t.e2e)))
	fmt.Fprintf(out, "  %-20s %12.6f %7.2f%%\n", "end to end", t.e2e.Seconds(), 100.0)
	fmt.Fprintf(out, "  %-20s %12.6f %7.2f%%  end to end minus the sum of layers\n", "residual", (t.e2e - sumL).Seconds(), 100*ratio(float64(t.e2e-sumL), float64(t.e2e)))
	un, tr := meanLatency(p.outs), meanLatency(t.outs)
	fmt.Fprintf(out, "  tracing overhead: mean latency %.4f ms untraced, %.4f ms traced (%+.2f%%)\n",
		float64(un)/1e6, float64(tr)/1e6, 100*(ratio(float64(tr), float64(un))-1))
}

// metrics reports every per-layer metric: counters and runtime deltas from
// the untraced window p, span-derived numbers from the traced window and
// the replay.
func (t *tracedRun) metrics(rep *report, w *workload, nodes int, p pass) error {
	v := make(map[string]float64)
	n := make(map[string]int)
	med := func(name, layer string, unit time.Duration) {
		xs := make([]float64, 0, len(t.replay[layer]))
		for _, d := range t.replay[layer] {
			xs = append(xs, float64(d)/float64(unit))
		}
		v[name], n[name] = median(xs), len(xs)
	}
	nAnswered := answered(p.outs)
	if w.open {
		late := lateness(p.outs)
		l99, err := percentile(late, 0.99)
		if err != nil {
			return err
		}
		v["loadgen.late_p99_ms"], n["loadgen.late_p99_ms"] = l99, len(late)
	}

	// net: the http span's self time, over cache hits served locally (all
	// batches on whatif-batch, which has no cached flag).
	var netUs []float64
	for i, s := range t.log.spans {
		if s.pass != passSocket || s.name != "http" {
			continue
		}
		o := &t.outs[s.req]
		if w.open && (!o.cached || o.via != "") {
			continue
		}
		netUs = append(netUs, float64(t.self[i])/1e3)
	}
	v["net.overhead_us_p50"], n["net.overhead_us_p50"] = median(netUs), len(netUs)
	med("service.hit_us_p50", "service.hit", time.Microsecond)
	med("service.decode_us_p50", "service.decode", time.Microsecond)
	med("cluster.build_ms_p50", "cluster.build", time.Millisecond)
	med("core.digest_ms_p50", "core.digest", time.Millisecond)
	med("cluster.schedule_ms_p50", "cluster.schedule", time.Millisecond)
	med("sched.order_ms_p50", "sched.order", time.Millisecond)
	med("cluster.iteration_ms_p50", "cluster.iteration", time.Millisecond)
	med("cluster.run_ms_p50", "cluster.run", time.Millisecond)
	med("sim.iter_us_p50", "sim.iter", time.Microsecond)
	med("cluster.derive_ms_p50", "cluster.derive", time.Millisecond)
	v["engine.busy_share"] = ratio(float64(t.busy), float64(t.poolCap))

	d := p.delta
	v["cache.sched_hit_ratio"], n["cache.sched_hit_ratio"] = ratio(float64(d.schedHits), float64(d.schedLookups)), int(d.schedLookups)
	v["cache.cluster_hit_ratio"], n["cache.cluster_hit_ratio"] = ratio(float64(d.clusterHits), float64(d.clusterLookups)), int(d.clusterLookups)
	v["cache.evictions"] = float64(d.evictions)
	v["cache.coalesced"] = float64(d.coalesced)
	v["cluster.builds"] = float64(p.total.clusterBuilds)
	if !w.open {
		distinct, variants := 0, 0
		for i := range p.outs {
			if !p.outs[i].ok() {
				continue
			}
			b, err := decodeBatch(p.outs[i].body)
			if err != nil {
				continue // counted by checkBatches
			}
			distinct += b.Summary.Distinct
			variants += b.Summary.Variants
		}
		v["batch.distinct_ratio"], n["batch.distinct_ratio"] = ratio(float64(distinct), float64(variants)), variants
		v["batch.schedule_builds_per_variant"] = ratio(float64(d.schedBuilds), float64(variants))
	}
	if nodes > 1 {
		var fwd, local []float64
		forwarded := 0
		for i := range p.outs {
			o := &p.outs[i]
			if !o.ok() {
				continue
			}
			if o.via != "" {
				forwarded++
			}
			if !o.cached {
				continue
			}
			ms := float64(o.done-o.send) / 1e6
			if o.via != "" {
				fwd = append(fwd, ms)
			} else {
				local = append(local, ms)
			}
		}
		v["fleet.forwarded_share"], n["fleet.forwarded_share"] = ratio(float64(forwarded), float64(nAnswered)), nAnswered
		v["fleet.hop_ms_p50"], n["fleet.hop_ms_p50"] = median(fwd)-median(local), len(fwd)
		v["fleet.hedges"] = float64(d.hedges)
		v["fleet.forward_failures"] = float64(d.forwardFailures)
	}
	v["go.alloc_kb_per_req"], n["go.alloc_kb_per_req"] = ratio(p.allocB/1024, float64(nAnswered)), nAnswered
	v["go.gc_cpu_share"] = ratio(p.gcCPU, p.allCPU)
	v["accounting.residual_share"] = ratio(float64(t.e2e-t.layerSum()), float64(t.e2e))
	v["accounting.trace_overhead_share"] = ratio(float64(meanLatency(t.outs)), float64(meanLatency(p.outs))) - 1

	for _, m := range perLayer {
		count, ok := n[m.name]
		if !ok {
			count = -1
		}
		rep.add(m.name, v[m.name], m.unit, count, "")
	}
	return nil
}
