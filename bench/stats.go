package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..1) of sorted by the
// nearest-rank rule: the smallest value with at least p of the samples at
// or below it. An empty slice reads 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// sortedCopy returns the values in ascending order without touching vs.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// median is percentile(0.5) of an unsorted slice.
func median(vs []float64) float64 { return percentile(sortedCopy(vs), 0.5) }

// mean of vs; 0 when empty.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// timedSample is one latency observation placed on the timed window's
// clock: at is seconds since the window opened, ms the latency.
type timedSample struct {
	at, ms float64
}

// sliceOf returns which of n equal slices of [0, windowS) holds time at,
// clamping times outside the window to the first or last slice.
func sliceOf(at, windowS float64, n int) int {
	return min(n-1, max(0, int(at/windowS*float64(n))))
}

// minSliceSamples is the fewest samples a slice needs for its p99 to keep
// ten samples beyond it.
const minSliceSamples = 1000

// slicedP99 cuts the window [0, windowS) into equal time slices and
// returns the median of the per-slice p99s with the slice count used. A
// single stall then moves one slice's p99, not the reported figure. The
// slice count is the largest of 1..10 that leaves every slice at least
// minSliceSamples on average; a window with fewer samples than that is
// one slice, and the caller reports the sample count so the reader can
// tell how much the p99 is worth.
func slicedP99(samples []timedSample, windowS float64) (p99 float64, slices int) {
	if len(samples) == 0 || windowS <= 0 {
		return 0, 0
	}
	slices = len(samples) / minSliceSamples
	if slices > 10 {
		slices = 10
	}
	if slices < 1 {
		slices = 1
	}
	buckets := make([][]float64, slices)
	for _, s := range samples {
		i := sliceOf(s.at, windowS, slices)
		buckets[i] = append(buckets[i], s.ms)
	}
	var p99s []float64
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sort.Float64s(b)
		p99s = append(p99s, percentile(b, 0.99))
	}
	return median(p99s), slices
}
