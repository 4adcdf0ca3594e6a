package queueing

import "testing"

// The analytic bounds are evaluated once per grid point by every experiment;
// these benchmarks pin their cost (and allocation-freeness) so regressions in
// the closed-form layer show up next to the simulator benchmarks.

func BenchmarkMD1MeanDelay(b *testing.B) {
	q := MD1{Lambda: 0.9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := q.MeanDelay(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBrumelleLowerBound(b *testing.B) {
	q := MDm{Lambda: 48, Servers: 64}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := q.BrumelleLowerBound(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeometricSumMeanTail(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GeometricSumMeanTail(384, 0.9, 0.25)
	}
}
