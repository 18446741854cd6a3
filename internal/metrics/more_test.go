package metrics

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCDFDoesNotAliasInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	c := NewCDF(xs)
	xs[0] = 100
	if c.Quantile(1) == 100 {
		t.Error("CDF aliases caller's slice")
	}
}

func TestEmptyCDFQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewCDF(nil).Quantile(0.5)
}

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
		return s.Median == percentileSorted(sorted, 50) &&
			s.P99 == percentileSorted(sorted, 99) &&
			s.Min <= s.Median && s.Median <= s.Max
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
