// Package metrics provides the summary statistics the paper reports:
// means, medians, tail percentiles, and normalization helpers for
// "relative to serial low-bandwidth" plots. Every percentile in the repo
// is taken by one rule, linear interpolation between closest ranks, over
// raw samples (Percentile) or over counted values (PercentileOfCounts).
package metrics

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of a non-empty
// sample of n values whose i-th smallest is at(i), interpolating linearly
// between the closest ranks.
func percentile(n int, at func(i int) float64, p float64) float64 {
	if p <= 0 {
		return at(0)
	}
	if p >= 100 {
		return at(n - 1)
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return at(lo)
	}
	frac := rank - float64(lo)
	return at(lo)*(1-frac) + at(hi)*frac
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of the sorted,
// non-empty s.
func Percentile(s []float64, p float64) float64 {
	return percentile(len(s), func(i int) float64 { return s[i] }, p)
}

// PercentileOfCounts returns the p-th percentile (0 ≤ p ≤ 100) of the
// sample that holds values[j] counts[j] times: values ascending and
// distinct, counts positive, at least one value. It equals Percentile of
// that sample written out in full.
func PercentileOfCounts(values []float64, counts []int64, p float64) float64 {
	cum := make([]int64, len(counts))
	var n int64
	for j, c := range counts {
		n += c
		cum[j] = n
	}
	// The value of rank i is the first whose cumulative count passes i.
	at := func(i int) float64 {
		return values[sort.Search(len(cum), func(j int) bool { return cum[j] > int64(i) })]
	}
	return percentile(int(n), at, p)
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
		Median: Percentile(s, 50),
		P90:    Percentile(s, 90),
		P99:    Percentile(s, 99),
		P999:   Percentile(s, 99.9),
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
