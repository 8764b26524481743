package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"

	"tictac/internal/cluster"
	"tictac/internal/core"
	"tictac/internal/service"
)

// Verification runs after the measured window. Each check marks the
// requests whose answers it rejects; every marked request counts as failed.
const (
	recomputeSample = 32 // window requests recomputed through the library
	twinSample      = 2  // window batches checked variant by variant against /v1/simulate
	singleSample    = 64 // fleet answers compared with a single node's
)

// failures collects rejected requests, each counted once.
type failures struct {
	seen map[int]bool
	msgs []string
}

func newFailures() *failures { return &failures{seen: make(map[int]bool)} }

func (f *failures) add(i int, format string, args ...any) {
	if f.seen[i] {
		return
	}
	f.seen[i] = true
	if len(f.msgs) < 8 {
		f.msgs = append(f.msgs, fmt.Sprintf("request %d: ", i)+fmt.Sprintf(format, args...))
	}
}

func (f *failures) count() int { return len(f.seen) }

// checkStatus marks every request that errored or was refused.
func checkStatus(outs []outcome, f *failures) {
	for i := range outs {
		if !outs[i].ok() {
			f.add(i, "%v", outs[i].err)
		}
	}
}

// checkSameBytes marks every answer that differs, apart from the cached
// flag, from the first answer to the same request.
func checkSameBytes(reqs []request, outs []outcome, f *failures) {
	first := make(map[string][32]byte)
	for i := range outs {
		if !outs[i].ok() {
			continue
		}
		k := reqs[i].path + "\x00" + string(reqs[i].body)
		h, seen := first[k]
		if !seen {
			first[k] = outs[i].hash
		} else if h != outs[i].hash {
			f.add(i, "answer differs from an earlier answer to the same request")
		}
	}
}

// sampleDistinct picks up to n indices of reqs with distinct bodies, by seed.
func sampleDistinct(seed int64, reqs []request, n int) map[int]bool {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[int]bool, n)
	bodies := make(map[string]bool, n)
	for _, i := range rng.Perm(len(reqs)) {
		if len(out) == n {
			break
		}
		if b := string(reqs[i].body); !bodies[b] {
			bodies[b] = true
			out[i] = true
		}
	}
	return out
}

// answer is the part of a schedule or simulate response the recompute check
// reads.
type answer struct {
	Result struct {
		ScheduleDigest    string  `json:"schedule_digest"`
		PredictedMakespan float64 `json:"predicted_makespan_seconds"`
		MeanMakespan      float64 `json:"mean_makespan_seconds"`
	} `json:"result"`
}

// checkRecompute recomputes the schedule digest and the predicted (schedule)
// or mean (simulate) makespan of the sampled answers through
// Cluster.ComputeSchedule, RunIteration and Run.
func checkRecompute(sample map[int]bool, offset int, reqs []request, outs []outcome, cs clusters, f *failures) error {
	for i := range sample {
		o := &outs[i]
		if !o.ok() {
			continue
		}
		var got answer
		if err := json.Unmarshal(o.body, &got); err != nil {
			f.add(offset+i, "undecodable answer: %v", err)
			continue
		}
		spec := reqs[i].spec
		c, err := cs.base(spec)
		if err != nil {
			return err
		}
		sc, err := c.ComputeSchedule(spec.Policy, spec.Warmup, spec.Seed)
		if err != nil {
			return err
		}
		if d := core.ScheduleDigest(sc); d != got.Result.ScheduleDigest {
			f.add(offset+i, "schedule_digest %s, recomputed %s", got.Result.ScheduleDigest, d)
			continue
		}
		if reqs[i].path == pathSchedule {
			it, err := c.RunIteration(cluster.RunOptions{Schedule: sc, Seed: spec.Seed, Jitter: 0})
			if err != nil {
				return err
			}
			if it.Makespan != got.Result.PredictedMakespan {
				f.add(offset+i, "predicted_makespan_seconds %v, recomputed %v", got.Result.PredictedMakespan, it.Makespan)
			}
			continue
		}
		out, err := c.Run(experiment(spec), runOptions(spec, sc))
		if err != nil {
			return err
		}
		if out.MeanMakespan != got.Result.MeanMakespan {
			f.add(offset+i, "mean_makespan_seconds %v, recomputed %v", got.Result.MeanMakespan, out.MeanMakespan)
		}
	}
	return nil
}

// batchAnswer is the part of a batch response the checks read.
type batchAnswer struct {
	Variants []struct {
		Error  *service.ErrorBody `json:"error"`
		Result json.RawMessage    `json:"result"`
	} `json:"variants"`
	Summary service.BatchSummary `json:"summary"`
}

func decodeBatch(body []byte) (*batchAnswer, error) {
	var b batchAnswer
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, err
	}
	return &b, nil
}

// checkBatches checks every answered batch: one result per variant, no
// variant errors, and the duplicate variant answered with the same bytes as
// the variant it copies.
func checkBatches(offset int, reqs []request, outs []outcome, f *failures) {
	for i := range outs {
		if !outs[i].ok() {
			continue
		}
		b, err := decodeBatch(outs[i].body)
		if err != nil {
			f.add(offset+i, "undecodable batch answer: %v", err)
			continue
		}
		if len(b.Variants) != len(reqs[i].batch.Variants) || b.Summary.Failed != 0 {
			f.add(offset+i, "batch answered %d of %d variants, %d failed", len(b.Variants), len(reqs[i].batch.Variants), b.Summary.Failed)
			continue
		}
		last := len(b.Variants) - 1
		if !bytes.Equal(compact(b.Variants[0].Result), compact(b.Variants[last].Result)) {
			f.add(offset+i, "duplicate variant answered differently")
		}
	}
}

// checkTwins sends each variant of the sampled batches as its own
// /v1/simulate request and compares the results byte for byte (after
// compacting: the batch response re-indents its embedded results).
func checkTwins(cl *client, sample map[int]bool, offset int, reqs []request, outs []outcome, f *failures) error {
	for i := range sample {
		if !outs[i].ok() {
			continue
		}
		b, err := decodeBatch(outs[i].body)
		if err != nil || len(b.Variants) != len(reqs[i].batch.Variants) {
			continue // already marked by checkBatches
		}
		for j, v := range reqs[i].batch.Variants {
			body, err := json.Marshal(envelope{Workload: variantSpec(*reqs[i].batch.Workload, v)})
			if err != nil {
				return err
			}
			resp, err := cl.http.Post(cl.urls[0]+pathSimulate, "application/json", bytes.NewReader(body))
			if err != nil {
				return fmt.Errorf("twin request: %w", err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return fmt.Errorf("twin request: %w", err)
			}
			var twin struct {
				Result json.RawMessage `json:"result"`
			}
			if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &twin) != nil {
				f.add(offset+i, "variant %d: twin /v1/simulate answered %d: %.200s", j, resp.StatusCode, raw)
				continue
			}
			if !bytes.Equal(compact(twin.Result), compact(b.Variants[j].Result)) {
				f.add(offset+i, "variant %d differs from its /v1/simulate twin", j)
			}
		}
	}
	return nil
}

// checkSingleNode replays the sampled requests on a fresh single tictacd and
// compares its answers with the fleet's.
func checkSingleNode(sample map[int]bool, offset int, reqs []request, outs []outcome, f *failures) {
	h := service.New(service.Options{}).Handler()
	for i := range sample {
		if !outs[i].ok() {
			continue
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, reqs[i].path, bytes.NewReader(reqs[i].body)))
		if rec.Code != http.StatusOK || sha256.Sum256(normalize(rec.Body.Bytes())) != outs[i].hash {
			f.add(offset+i, "fleet answer differs from the single-node answer")
		}
	}
}

func compact(raw []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return raw
	}
	return buf.Bytes()
}
