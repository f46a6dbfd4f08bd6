package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.Median != 3 || s.Sum != 15 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("stddev = %v", s.StdDev)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3, 20},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestDropMinMaxMeanPaperRule(t *testing.T) {
	// Ten job-set results; drop the best and the worst, average the
	// remaining eight (paper, Section 4.2).
	xs := []float64{5, 1, 9, 4, 6, 3, 7, 2, 8, 100}
	// min=1, max=100 dropped; mean of {5,9,4,6,3,7,2,8} = 44/8.
	if got := DropMinMaxMean(xs); math.Abs(got-5.5) > 1e-12 {
		t.Fatalf("DropMinMaxMean = %v, want 5.5", got)
	}
}

func TestDropMinMaxMeanSmallSamples(t *testing.T) {
	if got := DropMinMaxMean(nil); got != 0 {
		t.Errorf("empty = %v", got)
	}
	if got := DropMinMaxMean([]float64{7}); got != 7 {
		t.Errorf("single = %v", got)
	}
	if got := DropMinMaxMean([]float64{4, 8}); got != 6 {
		t.Errorf("pair = %v", got)
	}
}

func TestDropMinMaxMeanAllEqual(t *testing.T) {
	if got := DropMinMaxMean([]float64{3, 3, 3, 3}); got != 3 {
		t.Fatalf("all equal = %v", got)
	}
}

func TestDropMinMaxMeanDuplicateExtremes(t *testing.T) {
	// Only one minimal and one maximal sample are removed.
	xs := []float64{1, 1, 5, 9, 9}
	// Drop one 1 and one 9: mean of {1, 5, 9} = 5.
	if got := DropMinMaxMean(xs); math.Abs(got-5) > 1e-12 {
		t.Fatalf("duplicate extremes = %v, want 5", got)
	}
}

func TestDropMinMaxMeanPropertyBounded(t *testing.T) {
	// The trimmed mean always lies within [min, max] of the sample.
	if err := quick.Check(func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		m := DropMinMaxMean(xs)
		return m >= s.Min-1e-9 && m <= s.Max+1e-9
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{2, 4, 9}); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
}
