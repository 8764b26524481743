package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call. Spans of one request share req; parent is the
// index of the enclosing span, or -1 for a root. pass separates the socket
// pass (times from the window start) from the in-process replay (times from
// the replay start).
type span struct {
	name       string
	req        int
	parent     int
	pass       int
	start, end time.Duration
}

const (
	passSocket = 1
	passReplay = 2
)

func (s span) dur() time.Duration { return s.end - s.start }

// spanLog keeps spans in memory until the run ends. It is used from one
// goroutine at a time.
type spanLog struct{ spans []span }

// add records a span and returns its index, the parent handle for children.
func (l *spanLog) add(s span) int {
	l.spans = append(l.spans, s)
	return len(l.spans) - 1
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, spans, kids[i])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, spans []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	var cur [2]time.Duration
	open := false
	for _, v := range iv {
		switch {
		case !open:
			cur, open = v, true
		case v[0] <= cur[1]:
			cur[1] = max(cur[1], v[1])
		default:
			total += cur[1] - cur[0]
			cur = v
		}
	}
	if open {
		total += cur[1] - cur[0]
	}
	return total
}

// chromeEvent is one Chrome trace-event "complete" event.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON: one process per
// pass, one thread per request, so nested spans stack in the viewer.
func writeChrome(path string, spans []span, meta map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start) / 1e3,
			Dur: float64(s.dur()) / 1e3,
			Pid: s.pass, Tid: s.req,
			Args: map[string]any{"id": i, "parent": s.parent, "req": s.req},
		})
	}
	err = json.NewEncoder(w).Encode(struct {
		TraceEvents []chromeEvent  `json:"traceEvents"`
		Metadata    map[string]any `json:"metadata"`
	}{events, meta})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
