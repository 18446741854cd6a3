package traces

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllDistributionsValid(t *testing.T) {
	for _, c := range All() {
		if err := c.validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestAllNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range All() {
		if seen[c.Name] {
			t.Errorf("duplicate name %q", c.Name)
		}
		seen[c.Name] = true
	}
	if len(seen) != 5 {
		t.Errorf("expected 5 traces, got %d", len(seen))
	}
}

func TestQuantileMonotone(t *testing.T) {
	for _, c := range All() {
		prev := 0.0
		for p := 0.0; p <= 1.0; p += 0.01 {
			q := c.Quantile(p)
			if q < prev {
				t.Fatalf("%s: quantile not monotone at p=%v", c.Name, p)
			}
			prev = q
		}
	}
}

func TestQuantileEndpoints(t *testing.T) {
	for _, c := range All() {
		first := c.Points[0].Bytes
		last := c.Points[len(c.Points)-1].Bytes
		if got := c.Quantile(0); got != first {
			t.Errorf("%s: Quantile(0) = %v, want %v", c.Name, got, first)
		}
		if got := c.Quantile(1); got != last {
			t.Errorf("%s: Quantile(1) = %v, want %v", c.Name, got, last)
		}
	}
}

func TestCDFAtInvertsQuantile(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := All()[rng.Intn(len(All()))]
		p := rng.Float64()
		q := c.Quantile(p)
		back := c.CDFAt(q)
		diff := back - p
		if diff < 0 {
			diff = -diff
		}
		return diff < 0.02
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSampleWithinSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range All() {
		lo := int64(c.Points[0].Bytes)
		hi := int64(c.Points[len(c.Points)-1].Bytes)
		for i := 0; i < 1000; i++ {
			s := c.Sample(rng)
			if s < lo || s > hi {
				t.Fatalf("%s: sample %d outside [%d, %d]", c.Name, s, lo, hi)
			}
		}
	}
}

func TestSampleMatchesDistribution(t *testing.T) {
	// Empirical median of many samples should be near Quantile(0.5).
	rng := rand.New(rand.NewSource(11))
	for _, c := range All() {
		n := 20000
		under := 0
		med := c.Quantile(0.5)
		for i := 0; i < n; i++ {
			if float64(c.Sample(rng)) <= med {
				under++
			}
		}
		frac := float64(under) / float64(n)
		if frac < 0.45 || frac > 0.55 {
			t.Errorf("%s: %.3f of samples under the median", c.Name, frac)
		}
	}
}

func TestHeavyTailCharacter(t *testing.T) {
	// The defining contrast of Figure 13a: datamining has many tiny
	// flows and a GB tail; websearch has neither tiny flows nor a GB
	// tail.
	if DataMining.Quantile(0.5) > 2e3 {
		t.Error("datamining median should be ~1 kB")
	}
	if DataMining.Quantile(1) < 5e8 {
		t.Error("datamining tail should reach ~1 GB")
	}
	if WebSearch.Quantile(0.01) < 5e3 {
		t.Error("websearch should have no tiny flows")
	}
	if WebSearch.Quantile(1) > 1e8 {
		t.Error("websearch tail should stay under 100 MB")
	}
}

func TestMeanBytesOrdering(t *testing.T) {
	// Mean sizes should reflect the byte-heaviness ordering: webserver
	// (tiny) < websearch < datamining (GB tail dominates the mean).
	ws := WebServer.MeanBytes()
	se := WebSearch.MeanBytes()
	dm := DataMining.MeanBytes()
	if !(ws < se && se < dm) {
		t.Errorf("mean ordering violated: webserver=%.0f websearch=%.0f datamining=%.0f", ws, se, dm)
	}
}
