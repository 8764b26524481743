package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// minBeyond is the fewest samples a tail percentile must have above it; with
// fewer, one outlier decides the number.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. A tail
// percentile (p > 0.5) is refused unless at least minBeyond samples lie
// beyond its rank; the median needs one sample.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p*100)
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if p > 0.5 && n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p*100, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is percentile(xs, 0.5), or 0 for no samples: layer medians over an
// empty set (a layer the workload never reaches) read as zero.
func median(xs []float64) float64 {
	v, err := percentile(xs, 0.5)
	if err != nil {
		return 0
	}
	return v
}

// rateBlocks is how many blocks a throughput is split into: a slow spell on
// the host then moves a few blocks, not the median.
const rateBlocks = 10

// medianRate is a throughput robust to short slow spells. It takes the
// completion times of a phase's answers (offsets from the phase start) in
// the order they completed, cuts them into blocks of size answers, and
// returns the median over the blocks of size*perAnswer divided by the time
// from the end of the previous block (the phase start, for the first) to
// the end of the block. A partial last block is left out.
func medianRate(done []time.Duration, size int, perAnswer float64) float64 {
	if size < 1 || len(done) < size {
		return 0
	}
	ts := slices.Clone(done)
	slices.Sort(ts)
	var rates []float64
	var prev time.Duration
	for end := size; end <= len(ts); end += size {
		if d := ts[end-1] - prev; d > 0 {
			rates = append(rates, float64(size)*perAnswer/d.Seconds())
		}
		prev = ts[end-1]
	}
	return median(rates)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
