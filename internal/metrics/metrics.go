// Package metrics provides the summary statistics the paper reports:
// means, medians, tail percentiles, empirical CDFs, and normalization
// helpers for "relative to serial low-bandwidth" plots.
package metrics

import (
	"math"
	"sort"
)

// percentileSorted returns the p-th percentile (0 ≤ p ≤ 100) of the
// sorted, non-empty s using linear interpolation between closest ranks.
func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Mean returns the arithmetic mean; it panics on an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("metrics: mean of empty slice")
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Summary bundles the statistics reported in the paper's tables.
type Summary struct {
	N            int
	Mean, Median float64
	P90, P99     float64
	P999         float64
	Min, Max     float64
}

// Summarize computes a Summary; it panics on an empty slice.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("metrics: summarize of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum float64
	for _, x := range s {
		sum += x
	}
	return Summary{
		N:      len(s),
		Mean:   sum / float64(len(s)),
		Median: percentileSorted(s, 50),
		P90:    percentileSorted(s, 90),
		P99:    percentileSorted(s, 99),
		P999:   percentileSorted(s, 99.9),
		Min:    s[0],
		Max:    s[len(s)-1],
	}
}

// Relative expresses each field of s as a fraction of the corresponding
// field of base — the paper's Table 2 normalization.
func (s Summary) Relative(base Summary) Summary {
	div := func(a, b float64) float64 {
		if b == 0 {
			return math.NaN()
		}
		return a / b
	}
	return Summary{
		N:      s.N,
		Mean:   div(s.Mean, base.Mean),
		Median: div(s.Median, base.Median),
		P90:    div(s.P90, base.P90),
		P99:    div(s.P99, base.P99),
		P999:   div(s.P999, base.P999),
		Min:    div(s.Min, base.Min),
		Max:    div(s.Max, base.Max),
	}
}

// CDF is an empirical cumulative distribution.
type CDF struct {
	xs []float64 // sorted
}

// NewCDF builds an empirical CDF from samples.
func NewCDF(samples []float64) CDF {
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	return CDF{xs: xs}
}

// Quantile returns the smallest sample x with P(X ≤ x) ≥ p (0 < p ≤ 1).
func (c CDF) Quantile(p float64) float64 {
	if len(c.xs) == 0 {
		panic("metrics: quantile of empty CDF")
	}
	i := int(math.Ceil(p*float64(len(c.xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c.xs) {
		i = len(c.xs) - 1
	}
	return c.xs[i]
}
