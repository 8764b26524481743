package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// outcome is one request as the client saw it. Times are offsets from the
// window start: due (the schedule), release (the generator handed it to a
// connection's queue), send and done (response fully read).
type outcome struct {
	due, release, send, done time.Duration
	status                   int
	via                      string // X-Tictac-Via: the fleet member that served a forwarded request
	cached                   bool
	hash                     [32]byte // of the body with the cached flag cleared
	body                     []byte   // kept only when asked for
	err                      error
}

func (o *outcome) latency() time.Duration { return o.done - o.due }
func (o *outcome) ok() bool               { return o.err == nil && o.status == http.StatusOK }

// client sends generated requests over at most conns connections per node.
type client struct {
	http   *http.Client
	urls   []string
	traced bool // send the request id header the traced server wrapper reads
}

func newClient(urls []string, conns int, traced bool) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{http: &http.Client{Transport: tr, Timeout: time.Minute}, urls: urls, traced: traced}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// target spreads requests round-robin over the nodes.
func (c *client) target(i int) string { return c.urls[i%len(c.urls)] }

// do sends r to url and fills o's status, body digest and send/done times.
// id goes to the traced server wrapper (-1: none); keep retains the body.
func (c *client) do(url string, r request, id int, keep bool, origin time.Time, o *outcome) {
	req, err := http.NewRequest(http.MethodPost, url+r.path, bytes.NewReader(r.body))
	if err != nil {
		o.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if c.traced && id >= 0 {
		req.Header.Set(reqHeader, strconv.Itoa(id))
	}
	o.send = time.Since(origin)
	resp, err := c.http.Do(req)
	if err != nil {
		o.done = time.Since(origin)
		o.err = err
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Since(origin)
	o.status = resp.StatusCode
	o.via = resp.Header.Get("X-Tictac-Via")
	if err != nil {
		o.err = err
		return
	}
	if o.status != http.StatusOK {
		o.err = fmt.Errorf("%s: status %d: %.200s", r.path, o.status, body)
	}
	o.cached = cachedFlag(body)
	o.hash = sha256.Sum256(normalize(body))
	if keep {
		o.body = body
	}
}

var (
	cachedTrue  = [][]byte{[]byte(`"cached":true`), []byte(`"cached": true`)}
	cachedFalse = [][]byte{[]byte(`"cached":false`), []byte(`"cached": false`)}
)

// cachedHead is how far into a body the cached flag can sit: it is the first
// field of schedule and simulate responses.
const cachedHead = 32

func cachedFlag(body []byte) bool {
	head := body[:min(len(body), cachedHead)]
	return bytes.Contains(head, cachedTrue[0]) || bytes.Contains(head, cachedTrue[1])
}

// normalize clears the cached flag, the one field allowed to differ between
// two answers to the same request.
func normalize(body []byte) []byte {
	head := body[:min(len(body), cachedHead)]
	for i, t := range cachedTrue {
		if j := bytes.Index(head, t); j >= 0 {
			out := make([]byte, 0, len(body)+1)
			out = append(out, body[:j]...)
			out = append(out, cachedFalse[i]...)
			return append(out, body[j+len(t):]...)
		}
	}
	return body
}

// openLoop sends reqs on their due times from one generator goroutine
// through a queue drained by conns senders. A request's latency runs from
// its due time, so a stall is charged to every request queued behind it.
// keep says which responses to retain in full.
func (c *client) openLoop(origin time.Time, reqs []request, conns int, keep func(int) bool) []outcome {
	outs := make([]outcome, len(reqs))
	queue := make(chan int, len(reqs)) // never blocks the generator
	var wg sync.WaitGroup
	for s := 0; s < conns; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				c.do(c.target(i), reqs[i], i, keep(i), origin, &outs[i])
			}
		}()
	}
	for i, r := range reqs {
		sleepUntil(origin, r.due)
		outs[i].due = r.due
		outs[i].release = time.Since(origin)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return outs
}

// spinSlack is how long before a due time sleepUntil stops sleeping and
// spins. Nanosleep wakes within about a hundred microseconds; the runtime
// timer behind time.Sleep only resolves about a millisecond, and spinning
// over that gap would burn a tenth of a CPU at 100 req/s, CPU the server
// under test shares.
const spinSlack = 300 * time.Microsecond

func sleepUntil(origin time.Time, due time.Duration) {
	if d := due - time.Since(origin) - spinSlack; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) only lengthens the spin
	}
	for time.Since(origin) < due {
		runtime.Gosched()
	}
}

// closedLoop is one client sending reqs back to back until seconds have
// passed and at least minDone requests completed (or the plan runs out).
func (c *client) closedLoop(origin time.Time, reqs []request, seconds float64, minDone int, keep func(int) bool) []outcome {
	var outs []outcome
	limit := time.Duration(seconds * float64(time.Second))
	for i, r := range reqs {
		if time.Since(origin) >= limit && len(outs) >= minDone {
			break
		}
		o := outcome{}
		o.due = time.Since(origin)
		o.release = o.due
		c.do(c.target(i), r, i, keep(i), origin, &o)
		outs = append(outs, o)
	}
	return outs
}

// replayAll sends reqs as fast as conns senders allow (the warm-up prefix).
func (c *client) replayAll(reqs []request, conns int) []outcome {
	outs := make([]outcome, len(reqs))
	next := make(chan int, len(reqs))
	for i := range reqs {
		next <- i
	}
	close(next)
	origin := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < conns; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c.do(c.target(i), reqs[i], -1, false, origin, &outs[i])
			}
		}()
	}
	wg.Wait()
	return outs
}
