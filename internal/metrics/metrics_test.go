package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPercentileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := percentileSorted(xs, c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := percentileSorted(xs, 50); got != 5 {
		t.Errorf("P50 = %v, want 5", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPercentileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	Summarize(nil)
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("mean = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	s := Summarize(xs)
	if s.N != 100 || s.Min != 1 || s.Max != 100 {
		t.Errorf("summary = %+v", s)
	}
	if s.Mean != 50.5 || s.Median != 50.5 {
		t.Errorf("mean/median = %v/%v", s.Mean, s.Median)
	}
	if s.P99 < 99 || s.P99 > 100 {
		t.Errorf("p99 = %v", s.P99)
	}
}

func TestRelative(t *testing.T) {
	a := Summary{Mean: 80, Median: 50, P99: 90}
	base := Summary{Mean: 100, Median: 100, P99: 100}
	r := a.Relative(base)
	if r.Mean != 0.8 || r.Median != 0.5 || r.P99 != 0.9 {
		t.Errorf("relative = %+v", r)
	}
	if !math.IsNaN(a.Relative(Summary{}).Mean) {
		t.Error("division by zero base not NaN")
	}
}

func TestCDFAtAndQuantile(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if got := c.Quantile(0.25); got != 1 {
		t.Errorf("Quantile(0.25) = %v", got)
	}
	if got := c.Quantile(0.3); got != 2 {
		t.Errorf("Quantile(0.3) = %v", got)
	}
	if got := c.Quantile(0.5); got != 2 {
		t.Errorf("Quantile(0.5) = %v", got)
	}
	if got := c.Quantile(1); got != 4 {
		t.Errorf("Quantile(1) = %v", got)
	}
}

func TestCDFQuantileAtInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]float64, 50+r.Intn(50))
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		c := NewCDF(xs)
		// Quantile(p) is the smallest sample x with P(X ≤ x) ≥ p, for p
		// in (0,1]: at least p of the samples lie at or below it, fewer
		// than p strictly below it.
		for i := 0; i < 10; i++ {
			p := (float64(i) + 1) / 10
			q := c.Quantile(p)
			atOrBelow, below := 0, 0
			for _, x := range xs {
				if x <= q {
					atOrBelow++
				}
				if x < q {
					below++
				}
			}
			n := float64(len(xs))
			if float64(atOrBelow)/n < p-1e-12 || float64(below)/n >= p+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
