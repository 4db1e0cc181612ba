package main

import (
	"math/bits"
	"sort"
)

// hist is a fixed-memory log-linear latency histogram over nanoseconds:
// values below 64 ns get a bucket each, every octave above is cut into 32
// equal sub-buckets, so a bucket is never wider than 1/32 of its lower edge
// (≤3.1 % value error, ≤1.6 % once quantiles interpolate inside the
// bucket). 2^44 ns ≈ 4.9 h caps the range; larger values land in the last
// bucket. One hist per client, merged at the end: record is not
// synchronised.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	max    int64
}

const (
	histSubBits = 5 // 32 sub-buckets per octave
	histSub     = 1 << histSubBits
	histMaxExp  = 44
	histBuckets = 2*histSub + (histMaxExp-histSubBits-1)*histSub
)

func histIndex(v int64) int {
	if v < 2*histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - (histSubBits + 1) // v>>e is in [32, 64)
	idx := 2*histSub + (e-1)*histSub + int(v>>uint(e)) - histSub
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// histBounds returns the bucket's inclusive lower edge and its width.
func histBounds(idx int) (lo, width int64) {
	if idx < 2*histSub {
		return int64(idx), 1
	}
	e := (idx-2*histSub)/histSub + 1
	sub := int64((idx-2*histSub)%histSub + histSub)
	return sub << uint(e), 1 << uint(e)
}

func (h *hist) record(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
	if ns > h.max {
		h.max = ns
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in nanoseconds, interpolating by rank
// inside the bucket that holds it (so two runs whose quantile falls in the
// same bucket still read differently). An empty histogram reads 0.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := histBounds(i)
			v := float64(lo) + float64(w)*(rank-cum)/float64(c)
			if v > float64(h.max) {
				v = float64(h.max)
			}
			return v
		}
		cum += float64(c)
	}
	return float64(h.max)
}

// tail applies the percentile rule: the highest of p99 / p99.9 that still
// has at least ten samples beyond it, or p50 when even p99 has not. It
// returns the quantile used and its value in nanoseconds.
func (h *hist) tail() (q, ns float64) {
	for _, q := range []float64{0.999, 0.99} {
		if float64(h.n)*(1-q) >= 10 {
			return q, h.quantile(q)
		}
	}
	return 0.5, h.quantile(0.5)
}

// medianFloat returns the median of v (the upper middle of an even count).
func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}
