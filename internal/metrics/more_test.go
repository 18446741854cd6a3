package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummaryPercentileConsistency(t *testing.T) {
	// Summarize's median and p99 are the interpolated percentiles of
	// the sorted samples, for random unsorted data.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 10+rng.Intn(90))
		for i := range xs {
			xs[i] = rng.Float64() * 1000
		}
		s := Summarize(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return s.Median == Percentile(sorted, 50) &&
			s.P99 == Percentile(sorted, 99) &&
			s.Min <= s.Median && s.Median <= s.Max
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPercentileOfCountsMatchesPercentile: the counted form is the raw
// form of the sample written out in full, bit for bit, on samples with
// many repeats (a few distinct values, each drawn many times).
func TestPercentileOfCountsMatchesPercentile(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		distinct := make([]float64, 1+rng.Intn(20))
		for i := range distinct {
			distinct[i] = rng.Float64() * 1000
		}
		occurs := map[float64]int64{}
		var sorted []float64
		for range 1 + rng.Intn(500) {
			v := distinct[rng.Intn(len(distinct))]
			occurs[v]++
			sorted = append(sorted, v)
		}
		sort.Float64s(sorted)
		var values []float64
		var counts []int64
		for i, v := range sorted {
			if i == 0 || v != sorted[i-1] {
				values = append(values, v)
				counts = append(counts, occurs[v])
			}
		}
		for _, p := range []float64{0, 10, 25, 50, 75, 90, 99, 99.9, 100} {
			got, want := PercentileOfCounts(values, counts, p), Percentile(sorted, p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Logf("seed %d: p%v of %d values in %d distinct: counted %v, raw %v", seed, p, len(sorted), len(values), got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
