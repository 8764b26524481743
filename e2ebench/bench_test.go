package main

import (
	"bytes"
	"crypto/sha256"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tictac/internal/service"
)

func bodies(w *workload) [][]byte {
	var out [][]byte
	for _, r := range append(append(append([]request(nil), w.warm...), w.run...), w.sat...) {
		out = append(out, append([]byte(r.path+" "), r.body...))
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(name, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(name, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		ab, bb, cb := bodies(a), bodies(b), bodies(c)
		if len(ab) != len(bb) {
			t.Fatalf("%s: same seed gave %d and %d requests", name, len(ab), len(bb))
		}
		for i := range ab {
			if !bytes.Equal(ab[i], bb[i]) {
				t.Fatalf("%s: same seed, request %d differs:\n%s\n%s", name, i, ab[i], bb[i])
			}
			if a.open && a.run[min(i, len(a.run)-1)].due != b.run[min(i, len(b.run)-1)].due {
				t.Fatalf("%s: same seed, different due times", name)
			}
		}
		same := 0
		for i := range ab {
			if i < len(cb) && bytes.Equal(ab[i], cb[i]) {
				same++
			}
		}
		if same == len(ab) {
			t.Fatalf("%s: seeds 7 and 8 gave identical requests", name)
		}
	}
}

func TestZipfShape(t *testing.T) {
	w, err := generate(wServeZipf, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.run) != 20*zipfRate {
		t.Fatalf("window has %d requests, want %d", len(w.run), 20*zipfRate)
	}
	sims := 0
	for _, r := range w.run {
		if r.path == pathSimulate {
			sims++
		}
	}
	if sims != len(w.run)/20 {
		t.Fatalf("%d of %d window requests are /v1/simulate, want 5%%", sims, len(w.run))
	}
	// The window's p99 and the simulate p90 each keep 10 samples beyond.
	if _, err := percentile(make([]float64, len(w.run)-sims), 0.99); err != nil {
		t.Fatal(err)
	}
	if _, err := percentile(make([]float64, sims), 0.9); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 0.9); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 (10 beyond)", v, err)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples (9 beyond) was not refused")
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Fatal("p99 of 100 samples (1 beyond) was not refused")
	}
	if v, err := percentile(xs[:3], 0.5); err != nil || v != 2 {
		t.Fatalf("median of 1..3 = %v, %v; want 2", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("median of no samples was not refused")
	}
}

// A stalled request delays every request queued behind it on the one
// connection; timing from the due time charges that wait to them.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"cached":true,"result":{}}`))
	}))
	defer srv.Close()
	reqs := make([]request, 6)
	for i := range reqs {
		reqs[i] = request{path: pathSchedule, body: []byte("{}"), due: time.Duration(i) * 20 * time.Millisecond}
	}
	cl := newClient([]string{srv.URL}, 1, false)
	defer cl.close()
	outs := cl.openLoop(time.Now(), reqs, 1, func(int) bool { return false })
	for i := 1; i < len(outs); i++ {
		o := outs[i]
		if !o.ok() {
			t.Fatalf("request %d: %v", i, o.err)
		}
		// Due at 20i ms, it cannot be answered before the stall ends.
		if want := stall - o.due - 5*time.Millisecond; o.latency() < want {
			t.Errorf("request %d due at %v: latency %v, want >= %v", i, o.due, o.latency(), want)
		}
		if late := o.release - o.due; late > 50*time.Millisecond {
			t.Errorf("request %d: generator released it %v late; the wait belongs to the queue", i, late)
		}
	}
}

func TestVerifierFlagsOneCorruptByte(t *testing.T) {
	h := service.New(service.Options{}).Handler()
	spec := service.WorkloadSpec{Model: "AlexNet v2", Workers: 2, Policy: "tic", Seed: 3}
	r := request{path: pathSchedule, body: []byte(`{"workload":{"model":"AlexNet v2","workers":2,"policy":"tic","seed":3}}`), spec: spec}
	answer := func(body []byte) outcome {
		return outcome{status: http.StatusOK, cached: cachedFlag(body), hash: sha256.Sum256(normalize(body)), body: body}
	}
	miss := serve(h, r).Body.Bytes()
	hit := serve(h, r).Body.Bytes()
	if !cachedFlag(hit) || cachedFlag(miss) {
		t.Fatalf("want a miss then a hit, got cached=%v then %v", cachedFlag(miss), cachedFlag(hit))
	}
	reqs := []request{r, r, r}
	corrupt := append([]byte(nil), hit...)
	i := bytes.Index(corrupt, []byte(`"schedule_digest":"`)) + len(`"schedule_digest":"`)
	corrupt[i] ^= 1
	f := newFailures()
	checkSameBytes(reqs, []outcome{answer(miss), answer(hit), answer(corrupt)}, f)
	if f.count() != 1 || !f.seen[2] {
		t.Fatalf("same-bytes check flagged %v, want only the corrupt answer (2)", f.seen)
	}

	// The recompute check catches it with no earlier answer to compare to.
	f = newFailures()
	if err := checkRecompute(map[int]bool{0: true, 1: true}, 0, []request{r, r}, []outcome{answer(hit), answer(corrupt)}, clusters{}, f); err != nil {
		t.Fatal(err)
	}
	if f.count() != 1 || !f.seen[1] {
		t.Fatalf("recompute check flagged %v, want only the corrupt answer (1)", f.seen)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 10 * ms},
		{name: "a", parent: 0, start: 1 * ms, end: 4 * ms},
		{name: "b", parent: 0, start: 3 * ms, end: 6 * ms}, // overlaps a
		{name: "c", parent: 2, start: 4 * ms, end: 5 * ms},
	}
	got := selfTimes(spans)
	want := []time.Duration{5 * ms, 3 * ms, 2 * ms, 1 * ms}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
}

func TestNormalizeClearsOnlyCachedFlag(t *testing.T) {
	hit := []byte(`{"cached":true,"result":{"x":"\"cached\":true"}}`)
	want := `{"cached":false,"result":{"x":"\"cached\":true"}}`
	if got := string(normalize(hit)); got != want {
		t.Fatalf("normalize = %s, want %s", got, want)
	}
	sim := []byte("{\n  \"cached\": true,\n  \"result\": {}\n}")
	if got := string(normalize(sim)); !strings.Contains(got, `"cached": false`) {
		t.Fatalf("normalize(indented) = %s", got)
	}
}

func TestMedianRateSkipsSlowBlock(t *testing.T) {
	// 30 answers, 10 ms apart, except that the second block of ten took
	// ten times as long.
	var done []time.Duration
	t0 := time.Duration(0)
	for i := 0; i < 30; i++ {
		step := 10 * time.Millisecond
		if i >= 10 && i < 20 {
			step = 100 * time.Millisecond
		}
		t0 += step
		done = append(done, t0)
	}
	if got := medianRate(done, 10, 2); math.Abs(got-200) > 1e-9 {
		t.Fatalf("median rate %v, want 200/s (10 answers x 2 per 100 ms)", got)
	}
	if got := medianRate(done[:5], 10, 1); got != 0 {
		t.Fatalf("rate of a partial block %v, want 0", got)
	}
}
