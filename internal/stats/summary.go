package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N              int
	Min, Max       float64
	Mean           float64
	StdDev         float64 // sample standard deviation (n-1 denominator)
	Median         float64
	P90            float64
	Sum            float64
	CoeffVariation float64 // StdDev / Mean; 0 when Mean is 0
}

// Summarize computes descriptive statistics of xs. An empty sample yields
// the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range xs {
		s.Sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = s.Sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	if s.Mean != 0 {
		s.CoeffVariation = s.StdDev / s.Mean
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.P90 = Quantile(sorted, 0.9)
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// sample using linear interpolation between closest ranks. It panics if the
// sample is empty or q is outside [0, 1].
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// DropMinMaxMean implements the paper's aggregation rule (Section 4.2):
// "neglecting the maximum and minimum value, so that the average is
// computed from the remaining" samples. Exactly one minimal and one maximal
// sample are removed (by value; duplicates count once). Samples with fewer
// than three values are averaged unchanged.
func DropMinMaxMean(xs []float64) float64 {
	if len(xs) < 3 {
		return Mean(xs)
	}
	minI, maxI := 0, 0
	for i, x := range xs {
		if x < xs[minI] {
			minI = i
		}
		if x > xs[maxI] {
			maxI = i
		}
	}
	if minI == maxI { // all equal: dropping any two keeps the mean
		return xs[0]
	}
	var sum float64
	for i, x := range xs {
		if i == minI || i == maxI {
			continue
		}
		sum += x
	}
	return sum / float64(len(xs)-2)
}
