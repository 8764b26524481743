package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"tictac/internal/core"
	"tictac/internal/graph"
	"tictac/internal/timing"
)

// Runner is a reusable discrete-event executor bound to one graph.
//
// NewRunner precomputes everything about the graph that the old one-shot
// Run derived on every call — the sorted resource index, a flat successor
// adjacency (CSR), per-op resource/device indices, transfer keys and
// recv/transfer flags — and every run reuses the per-run mutable state
// (indegree, ready queues, busy flags, event heap, RNG) across calls.
// RunInto also refills a caller-owned Result in place, so a steady-state
// RunInto allocates only the recv-order key backing it hands out, and its
// inner loop indexes dense int32 tables instead of hashing strings.
//
// Schedules are consumed in compiled form through the schedule's own memo
// (core.Schedule.CompiledFor), so the warmup+measure protocol pays the
// compilation once and the Runner itself holds no reference to any
// schedule it has run.
//
// A Runner is safe for concurrent use: each run borrows an exclusive state
// (a lock-free primary slot backed by a sync.Pool for concurrent overflow),
// so any number of goroutines may execute the same Runner — the parallel
// bench engine's repeated-run experiments rely on this. Results are
// bit-identical to the pre-Runner implementation (and to sim.Run): same RNG
// draw sequence, same floating-point arithmetic — pinned by the parity
// tests against internal/sim/simref.
type Runner struct {
	g   *graph.Graph
	ops []*graph.Op

	resNames []string // sorted resource tags; index = resource ID
	devNames []string // sorted device tags; index = device ID

	opRes      []int32   // op ID → resource index
	opDev      []int32   // op ID → device index
	succOff    []int32   // CSR offsets into succ, len(ops)+1
	succ       []int32   // successor op IDs in Out() order
	indeg0     []int32   // baseline indegrees
	initReady  [][]int32 // per-resource root op IDs in op-ID order
	key        []string  // op ID → transfer key (core.Key)
	isRecv     []bool
	isTransfer []bool
	totalRecvs int
	nRecvDevs  int // devices hosting at least one recv op

	noSchedule []int32 // the nil schedule compiled: all -1

	// prime is the fast-path reusable state: single-goroutine callers hit
	// it deterministically (no GC-emptied pool on the steady-state path);
	// concurrent callers overflow into the pool.
	prime     atomic.Pointer[runState]
	statePool sync.Pool
}

// NewRunner validates the graph (acyclicity) and builds the precomputed
// execution view. The graph must not be mutated afterwards.
func NewRunner(g *graph.Graph) (*Runner, error) {
	if _, err := g.TopoSort(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	ops := g.Ops()
	n := len(ops)

	resNames := g.Resources()
	resIndex := make(map[string]int, len(resNames))
	for i, name := range resNames {
		resIndex[name] = i
	}
	devNames := g.Devices()
	devIndex := make(map[string]int, len(devNames))
	for i, name := range devNames {
		devIndex[name] = i
	}

	r := &Runner{
		g:          g,
		ops:        ops,
		resNames:   resNames,
		devNames:   devNames,
		opRes:      make([]int32, n),
		opDev:      make([]int32, n),
		succOff:    make([]int32, n+1),
		indeg0:     make([]int32, n),
		initReady:  make([][]int32, len(resNames)),
		key:        make([]string, n),
		isRecv:     make([]bool, n),
		isTransfer: make([]bool, n),
		noSchedule: make([]int32, n),
	}
	recvDevs := make([]bool, len(devNames))
	for i, op := range ops {
		r.opRes[i] = int32(resIndex[op.Resource])
		r.opDev[i] = int32(devIndex[op.Device])
		r.indeg0[i] = int32(op.NumIn())
		r.key[i] = core.Key(op)
		r.isRecv[i] = op.Kind == graph.Recv
		r.isTransfer[i] = op.Kind == graph.Recv || op.Kind == graph.Send
		r.succOff[i+1] = r.succOff[i] + int32(op.NumOut())
		r.noSchedule[i] = -1
		if r.isRecv[i] {
			r.totalRecvs++
			if di := devIndex[op.Device]; !recvDevs[di] {
				recvDevs[di] = true
				r.nRecvDevs++
			}
		}
		if op.NumIn() == 0 {
			ri := resIndex[op.Resource]
			r.initReady[ri] = append(r.initReady[ri], int32(i))
		}
	}
	r.succ = make([]int32, r.succOff[n])
	for i, op := range ops {
		k := r.succOff[i]
		for _, s := range op.Out() {
			r.succ[k] = int32(s.ID)
			k++
		}
	}
	return r, nil
}

// compiledFor returns the schedule's compiled table for this graph.
func (r *Runner) compiledFor(s *core.Schedule) []int32 {
	if s == nil {
		return r.noSchedule
	}
	return s.CompiledFor(r.g)
}

// runState is the mutable per-run scratch. One state serves one Run at a
// time; the Runner recycles states across runs.
type runState struct {
	rng       *rand.Rand
	indeg     []int32
	ready     [][]int32 // per resource, op IDs
	busy      []bool
	events    revHeap
	unprio    []int32   // pick scratch: unprioritized candidates
	cand      []int32   // incremental dispatch: sorted unique resource IDs
	recvOrd   [][]int32 // per device, recv op IDs in dispatch order
	devFinish []float64

	// Per-run configuration, copied out of Config so the hot functions
	// take no extra arguments. Cleared when the state is recycled.
	pos       []int32
	oracle    timing.Oracle
	costScale func(*graph.Op) float64
	disabled  func(*graph.Op) bool
	tracer    *timing.Tracer
	jitter    float64
	reorder   float64

	now      float64
	seq      int32
	reorders int
}

func (r *Runner) newState() *runState {
	st := &runState{
		rng:       rand.New(rand.NewSource(0)),
		indeg:     make([]int32, len(r.ops)),
		ready:     make([][]int32, len(r.resNames)),
		busy:      make([]bool, len(r.resNames)),
		unprio:    make([]int32, 0, 16),
		cand:      make([]int32, 0, 16),
		recvOrd:   make([][]int32, len(r.devNames)),
		devFinish: make([]float64, len(r.devNames)),
	}
	st.events.xs = make([]rev, 0, len(r.resNames)+1)
	return st
}

func (r *Runner) getState() *runState {
	if st := r.prime.Swap(nil); st != nil {
		return st
	}
	if v := r.statePool.Get(); v != nil {
		return v.(*runState)
	}
	return r.newState()
}

func (r *Runner) putState(st *runState) {
	st.pos, st.oracle, st.costScale, st.disabled, st.tracer = nil, nil, nil, nil, nil
	if r.prime.CompareAndSwap(nil, st) {
		return
	}
	r.statePool.Put(st)
}

// Run executes the graph once under the given configuration and returns a
// fresh Result. It is RunInto on a new Result.
func (r *Runner) Run(cfg Config) (*Result, error) {
	res := &Result{}
	if err := r.RunInto(cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto executes the graph once under the given configuration and writes
// the outcome into res, reusing its Spans backing and its two maps: res is
// reset first, so nothing of a previous run survives in it. The recv-order
// slices are the one part never recycled — each run hands out a fresh key
// backing, so a RecvStartOrder slice kept from an earlier run stays valid.
// On error res holds no meaningful result.
//
//tictac:hotpath
func (r *Runner) RunInto(cfg Config, res *Result) error {
	if cfg.Oracle == nil {
		return fmt.Errorf("sim: Config.Oracle is required")
	}
	return r.runCompiled(cfg, r.compiledFor(cfg.Schedule), res)
}

// runCompiled runs under the compiled schedule table pos on a borrowed
// state.
//
//tictac:hotpath
func (r *Runner) runCompiled(cfg Config, pos []int32, res *Result) error {
	st := r.getState()
	err := r.run(cfg, pos, st, res)
	r.putState(st)
	return err
}

// run is the hot path. Everything it touches is either in the precomputed
// Runner view, the recycled runState, or the caller's Result.
//
//tictac:hotpath
func (r *Runner) run(cfg Config, pos []int32, st *runState, res *Result) error {
	// Reset recycled state. The RNG is re-seeded in place, which yields
	// exactly the stream of rand.New(rand.NewSource(seed)).
	st.rng.Seed(cfg.Seed)
	copy(st.indeg, r.indeg0)
	for ri := range st.ready {
		st.ready[ri] = append(st.ready[ri][:0], r.initReady[ri]...)
		st.busy[ri] = false
	}
	for di := range st.recvOrd {
		st.recvOrd[di] = st.recvOrd[di][:0]
		st.devFinish[di] = 0
	}
	st.events.xs = st.events.xs[:0]
	st.pos = pos
	st.oracle = cfg.Oracle
	st.costScale = cfg.CostScale
	st.disabled = cfg.Disabled
	st.tracer = cfg.Tracer
	st.jitter = cfg.Jitter
	st.reorder = cfg.ReorderProb
	st.now = 0
	st.seq = 0
	st.reorders = 0

	res.reset(len(r.ops), r.nRecvDevs, len(r.devNames))

	for ri := range r.resNames {
		r.dispatch(st, int32(ri))
	}

	completed := 0
	for st.events.len() > 0 {
		ev := st.events.pop()
		st.now = ev.at
		st.busy[ev.res] = false
		if !ev.masked {
			res.Spans = append(res.Spans, Span{Op: r.ops[ev.op], Start: ev.start, End: ev.at})
			if di := r.opDev[ev.op]; ev.at > st.devFinish[di] {
				st.devFinish[di] = ev.at
			}
		}
		completed++
		// Incremental dispatch: only the freed resource and resources that
		// gained ready ops can possibly dispatch (every other idle resource
		// had an empty ready queue after the previous event — the loop
		// below keeps that invariant). Visit them in ascending resource
		// order, exactly like the old full rescan did.
		st.cand = append(st.cand[:0], ev.res)
		for k := r.succOff[ev.op]; k < r.succOff[ev.op+1]; k++ {
			succ := r.succ[k]
			st.indeg[succ]--
			if st.indeg[succ] == 0 {
				ri := r.opRes[succ]
				st.ready[ri] = append(st.ready[ri], succ)
				st.addCand(ri)
			}
		}
		for _, ri := range st.cand {
			r.dispatch(st, ri)
		}
	}
	if completed != len(r.ops) {
		return fmt.Errorf("sim: deadlock, completed %d of %d ops", completed, len(r.ops))
	}

	res.Makespan = st.now
	res.ReorderEvents = st.reorders
	// Materialize the per-device views. One backing array serves every
	// device's recv-order slice; full-capacity sub-slices keep appends by
	// the caller (if any) from bleeding into a neighbour.
	backing := make([]string, 0, r.totalRecvs)
	for di, ids := range st.recvOrd {
		if len(ids) == 0 {
			continue
		}
		start := len(backing)
		for _, id := range ids {
			backing = append(backing, r.key[id])
		}
		res.RecvStartOrder[r.devNames[di]] = backing[start:len(backing):len(backing)]
	}
	for di, finish := range st.devFinish {
		if finish > 0 {
			res.DeviceFinish[r.devNames[di]] = finish
		}
	}
	return nil
}

// addCand inserts a resource index into the sorted unique candidate list.
//
//tictac:hotpath
func (st *runState) addCand(ri int32) {
	i := 0
	for i < len(st.cand) && st.cand[i] < ri {
		i++
	}
	if i < len(st.cand) && st.cand[i] == ri {
		return
	}
	st.cand = append(st.cand, 0)
	copy(st.cand[i+1:], st.cand[i:])
	st.cand[i] = ri
}

// dispatch starts the next op on resource ri if it is idle and has ready
// work: pick per the paper's rule, time the op, and push its completion.
//
//tictac:hotpath
func (r *Runner) dispatch(st *runState, ri int32) {
	if st.busy[ri] || len(st.ready[ri]) == 0 {
		return
	}
	id, reordered := r.pick(st, st.ready[ri])
	st.ready[ri] = removeID(st.ready[ri], id)
	if reordered {
		st.reorders++
	}
	op := r.ops[id]
	if st.disabled != nil && st.disabled(op) {
		// Masked op: complete instantly with no span, no jitter draw, no
		// recv-order entry — its only effect is releasing successors.
		st.busy[ri] = true
		st.events.push(rev{at: st.now, seq: st.seq, start: st.now, op: id, res: ri, masked: true})
		st.seq++
		return
	}
	dur := st.oracle.Time(op)
	if st.costScale != nil {
		dur *= st.costScale(op)
	}
	if st.jitter > 0 {
		factor := 1 + st.jitter*st.rng.NormFloat64()
		if factor < 0.05 {
			factor = 0.05
		}
		dur *= factor
	}
	if st.tracer != nil {
		st.tracer.Record(op.Name, dur)
	}
	if r.isRecv[id] {
		di := r.opDev[id]
		st.recvOrd[di] = append(st.recvOrd[di], id)
	}
	st.busy[ri] = true
	st.events.push(rev{at: st.now + dur, seq: st.seq, start: st.now, op: id, res: ri})
	st.seq++
}

// pick selects the next op from a ready list per the paper's rule (§3.1):
// candidates are the ops holding the lowest priority number plus the
// unprioritized ops; the choice among them is uniformly random. It consumes
// exactly the RNG draws of the pre-Runner implementation (including the
// Intn(1) draw when the candidate set is a singleton), so streams are
// bit-identical. The second return value reports whether an injected
// reorder error displaced the top-priority transfer.
//
//tictac:hotpath
func (r *Runner) pick(st *runState, ready []int32) (int32, bool) {
	if len(ready) == 1 {
		return ready[0], false
	}
	pos := st.pos
	best, second := int32(-1), int32(-1)
	bestPos, secondPos := int32(-1), int32(-1)
	unprio := st.unprio[:0]
	for _, id := range ready {
		p := pos[id]
		if p < 0 {
			unprio = append(unprio, id)
			continue
		}
		switch {
		case best < 0 || p < bestPos:
			second, secondPos = best, bestPos
			best, bestPos = id, p
		case second < 0 || p < secondPos:
			second, secondPos = id, p
		}
	}
	st.unprio = unprio // keep any grown capacity for the next pick
	if best < 0 {
		return unprio[st.rng.Intn(len(unprio))], false
	}
	// Injected gRPC-style inversion: dispatch the runner-up. Only network
	// transfers invert — the phenomenon lives in the RPC layer (§5.1), so
	// prioritized PS-side ops (which share the parameter's schedule key)
	// must not draw from the inversion stream.
	if second >= 0 && st.reorder > 0 && r.isTransfer[best] && st.rng.Float64() < st.reorder {
		return second, true
	}
	idx := st.rng.Intn(len(unprio) + 1)
	if idx == len(unprio) {
		return best, false
	}
	return unprio[idx], false
}

// removeID removes the first occurrence of id, swapping in the last element
// (the ready lists are unordered between picks, but the swap pattern must
// match the old implementation so subsequent scans see the same order).
//
//tictac:hotpath
func removeID(xs []int32, id int32) []int32 {
	for i, x := range xs {
		if x == id {
			xs[i] = xs[len(xs)-1]
			return xs[:len(xs)-1]
		}
	}
	return xs
}

// rev is one completion in the simulated timeline ("runner event").
type rev struct {
	at     float64
	start  float64
	seq    int32
	op     int32
	res    int32
	masked bool // Disabled op: releases successors, records nothing
}

// revHeap is a binary min-heap ordered by (at, seq).
type revHeap struct{ xs []rev }

func (h *revHeap) len() int { return len(h.xs) }

func (h *revHeap) less(i, j int) bool {
	if h.xs[i].at != h.xs[j].at {
		return h.xs[i].at < h.xs[j].at
	}
	return h.xs[i].seq < h.xs[j].seq
}

func (h *revHeap) push(e rev) {
	h.xs = append(h.xs, e)
	i := len(h.xs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.xs[i], h.xs[p] = h.xs[p], h.xs[i]
		i = p
	}
}

func (h *revHeap) pop() rev {
	top := h.xs[0]
	last := len(h.xs) - 1
	h.xs[0] = h.xs[last]
	h.xs = h.xs[:last]
	i := 0
	for {
		l, rc := 2*i+1, 2*i+2
		small := i
		if l < len(h.xs) && h.less(l, small) {
			small = l
		}
		if rc < len(h.xs) && h.less(rc, small) {
			small = rc
		}
		if small == i {
			break
		}
		h.xs[i], h.xs[small] = h.xs[small], h.xs[i]
		i = small
	}
	return top
}
