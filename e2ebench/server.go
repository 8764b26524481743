package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"tictac/internal/fleet"
	"tictac/internal/service"
)

// reqHeader carries the benchmark's request id to the traced server wrapper,
// which strips it before tictacd sees the request.
const reqHeader = "X-E2ebench-Req"

// deployment is tictacd running in this process: one node, or a fleet whose
// members forward to each other over loopback.
type deployment struct {
	svcs    []*service.Service
	urls    []string
	servers []*http.Server
	stop    context.CancelFunc // stops the fleet probe loops
	wg      sync.WaitGroup
}

// deploy starts nodes tictacd instances with default options on loopback
// listeners. nodes > 1 forms a fleet. wrap, when non-nil, wraps each node's
// handler (the traced run's span recorder).
func deploy(nodes int, wrap func(node int, h http.Handler) http.Handler) (*deployment, error) {
	d := &deployment{}
	lns := make([]net.Listener, nodes)
	members := make([]fleet.Member, nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
		members[i] = fleet.Member{ID: fmt.Sprintf("node%d", i), URL: "http://" + ln.Addr().String()}
		d.urls = append(d.urls, members[i].URL)
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.stop = cancel
	for i, ln := range lns {
		var opts service.Options
		if nodes > 1 {
			node, err := fleet.NewNode(fleet.Config{Self: members[i].ID, Members: members})
			if err != nil {
				cancel()
				for _, l := range lns[i:] {
					l.Close()
				}
				d.close()
				return nil, err
			}
			node.Start(ctx)
			opts.Fleet = node
		}
		svc := service.New(opts)
		var h http.Handler = svc.Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
		d.svcs = append(d.svcs, svc)
		d.servers = append(d.servers, srv)
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Printf("e2ebench: serve: %v\n", err)
			}
		}()
	}
	return d, nil
}

// close stops every server and probe loop and waits for the serve loops.
func (d *deployment) close() {
	d.stop()
	for _, srv := range d.servers {
		srv.Close()
	}
	d.wg.Wait()
}

// counters is the deployment-wide sum of the service counters the benchmark
// reads from outside: cache stats, build counts and the fleet section of
// /metrics.
type counters struct {
	schedHits, schedLookups     uint64
	clusterHits, clusterLookups uint64
	evictions, coalesced        uint64
	clusterBuilds, schedBuilds  uint64
	hedges, forwardFailures     uint64
}

func (d *deployment) counters() counters {
	var c counters
	for _, s := range d.svcs {
		cl, sc := s.CacheStats()
		c.schedHits += sc.Hits
		c.schedLookups += sc.Lookups()
		c.clusterHits += cl.Hits
		c.clusterLookups += cl.Lookups()
		c.evictions += sc.Evictions + cl.Evictions
		c.coalesced += sc.Coalesced + cl.Coalesced
		cb, sb := s.BuildCounts()
		c.clusterBuilds += cb
		c.schedBuilds += sb
		if f := s.Metrics().Fleet; f != nil {
			for _, p := range f.Members {
				c.hedges += p.Hedges
				c.forwardFailures += p.ForwardFailures
			}
		}
	}
	return c
}

func (c counters) minus(o counters) counters {
	return counters{
		schedHits: c.schedHits - o.schedHits, schedLookups: c.schedLookups - o.schedLookups,
		clusterHits: c.clusterHits - o.clusterHits, clusterLookups: c.clusterLookups - o.clusterLookups,
		evictions: c.evictions - o.evictions, coalesced: c.coalesced - o.coalesced,
		clusterBuilds: c.clusterBuilds - o.clusterBuilds, schedBuilds: c.schedBuilds - o.schedBuilds,
		hedges: c.hedges - o.hedges, forwardFailures: c.forwardFailures - o.forwardFailures,
	}
}

// serverSpan is one ServeHTTP call seen by the traced wrapper on node. req
// is the benchmark's request id, or -1 for a request without one (warm-up,
// or forwarded by another node: fwd).
type serverSpan struct {
	node       int
	req        int
	fwd        bool
	start, end time.Time
}

// serverSpans records the POST ServeHTTP calls on every node of a traced
// deployment.
type serverSpans struct {
	mu    sync.Mutex
	spans []serverSpan
}

func (s *serverSpans) wrap(node int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			h.ServeHTTP(w, r) // fleet health probes
			return
		}
		sp := serverSpan{node: node, req: -1, fwd: r.Header.Get(fleet.ForwardedHeader) != ""}
		if v := r.Header.Get(reqHeader); v != "" {
			sp.req, _ = strconv.Atoi(v)
			r.Header.Del(reqHeader)
		}
		sp.start = time.Now()
		h.ServeHTTP(w, r)
		sp.end = time.Now()
		s.mu.Lock()
		s.spans = append(s.spans, sp)
		s.mu.Unlock()
	})
}

// take returns the recorded spans and starts a new record.
func (s *serverSpans) take() []serverSpan {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.spans
	s.spans = nil
	return out
}
