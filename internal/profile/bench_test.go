package profile

import (
	"fmt"
	"testing"

	"dynp/internal/rng"
)

// BenchmarkPlace measures earliest-hole placement on profiles of growing
// fragmentation — the inner loop of every full-schedule build. Every
// search starts at the profile start and the profile ends with about as
// many steps as jobs, so the sizes run from what a planning step builds
// (DESIGN.md §11) to far beyond it.
func BenchmarkPlace(b *testing.B) {
	for _, queued := range []int{10, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("queue%d", queued), func(b *testing.B) {
			r := rng.New(1)
			widths := make([]int, queued)
			durs := make([]int64, queued)
			for i := range widths {
				widths[i] = 1 + r.Intn(64)
				durs[i] = int64(1 + r.Intn(10000))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := New(128, 0)
				for k := 0; k < queued; k++ {
					p.Place(0, widths[k], durs[k])
				}
			}
		})
	}
}

// BenchmarkEarliestFit measures the probe path without committing.
func BenchmarkEarliestFit(b *testing.B) {
	r := rng.New(2)
	p := New(128, 0)
	for k := 0; k < 500; k++ {
		p.Place(0, 1+r.Intn(64), int64(1+r.Intn(10000)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.EarliestFit(0, 64, 5000)
	}
}

// BenchmarkClone measures profile copying (used by verification paths).
func BenchmarkClone(b *testing.B) {
	r := rng.New(3)
	p := New(128, 0)
	for k := 0; k < 500; k++ {
		p.Place(0, 1+r.Intn(64), int64(1+r.Intn(10000)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Clone()
	}
}
