package main

import (
	"math"
	"sort"
)

// summary is how every repeated timing is reported: the median is the
// metric, the quartiles its spread, n the number of passes behind it.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// summarize reduces samples to a summary; an empty input gives the zero
// summary (n = 0).
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		Median: quantile(s, 0.5),
		Min:    s[0],
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		Max:    s[len(s)-1],
		N:      len(s),
	}
}

// quantile interpolates linearly between the closest ranks of a sorted,
// non-empty sample.
func quantile(sorted []float64, p float64) float64 {
	rank := p * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// spread is the interquartile range as a share of the median, the same
// measure the bounds in BENCHMARK.json are stated in.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}
