package queueing

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMD1KnownValues(t *testing.T) {
	q := MD1{Lambda: 0.5}
	d, err := q.MeanDelay()
	if err != nil || !almostEqual(d, 1.5, 1e-12) {
		t.Fatalf("MD1 delay = %v err %v", d, err)
	}
	n, err := q.MeanNumber()
	if err != nil || !almostEqual(n, 0.75, 1e-12) {
		t.Fatalf("MD1 number = %v", n)
	}
	// Little's law consistency: N = lambda * W.
	if !almostEqual(n, q.Lambda*d, 1e-12) {
		t.Fatal("MD1 violates Little's law")
	}
}

func TestMD1Unstable(t *testing.T) {
	q := MD1{Lambda: 1.0}
	if _, err := q.MeanDelay(); err != ErrUnstable {
		t.Fatal("expected ErrUnstable at rho=1")
	}
	if _, err := q.MeanNumber(); err != ErrUnstable {
		t.Fatal("expected ErrUnstable at rho=1")
	}
}

func TestMD1DelayLessThanMM1(t *testing.T) {
	// Deterministic service halves the waiting time relative to exponential.
	for _, rho := range []float64{0.1, 0.5, 0.9, 0.99} {
		md1, _ := MD1{Lambda: rho}.MeanDelay()
		mm1 := 1 / (1 - rho) // M/M/1 sojourn with unit-mean service
		if md1 >= mm1 {
			t.Fatalf("rho=%v: M/D/1 delay %v >= M/M/1 delay %v", rho, md1, mm1)
		}
	}
}

func TestBrumelleLowerBound(t *testing.T) {
	// Single server: the bound must be below the exact M/D/1 value.
	for _, rho := range []float64{0.2, 0.5, 0.8, 0.95} {
		exact, _ := MD1{Lambda: rho}.MeanDelay()
		lb, err := MDm{Lambda: rho, Servers: 1}.BrumelleLowerBound()
		if err != nil {
			t.Fatal(err)
		}
		if lb > exact+1e-12 {
			t.Fatalf("rho=%v: Brumelle bound %v exceeds exact M/D/1 %v", rho, lb, exact)
		}
		if lb < 1 {
			t.Fatalf("bound below the service time: %v", lb)
		}
	}
	// The bound decreases as the server count grows (more servers, less wait).
	prev := math.Inf(1)
	for _, m := range []int{1, 2, 4, 64, 1024} {
		lb, err := MDm{Lambda: 0.8 * float64(m), Servers: m}.BrumelleLowerBound()
		if err != nil {
			t.Fatal(err)
		}
		if lb > prev+1e-12 {
			t.Fatalf("Brumelle bound not decreasing in m: %v after %v", lb, prev)
		}
		prev = lb
	}
}

func TestBrumelleUnstableAndBadServers(t *testing.T) {
	if _, err := (MDm{Lambda: 2, Servers: 1}).BrumelleLowerBound(); err != ErrUnstable {
		t.Fatal("expected ErrUnstable")
	}
	if _, err := (MDm{Lambda: 0.5, Servers: 0}).BrumelleLowerBound(); err == nil {
		t.Fatal("expected error for zero servers")
	}
}

func TestProductFormStation(t *testing.T) {
	s := ProductFormStation{Utilization: 0.5}
	n, err := s.MeanNumber()
	if err != nil || !almostEqual(n, 1, 1e-12) {
		t.Fatalf("mean number = %v", n)
	}
}

func TestProductFormStationUnstable(t *testing.T) {
	if _, err := (ProductFormStation{Utilization: 1}).MeanNumber(); err != ErrUnstable {
		t.Fatal("expected ErrUnstable")
	}
	if _, err := (ProductFormStation{Utilization: -0.1}).MeanNumber(); err == nil {
		t.Fatal("expected error for negative utilisation")
	}
}

func TestGeometricSumMeanTail(t *testing.T) {
	// For a large number of stations the probability of exceeding the mean
	// by 25% must be tiny, and a 10% excess must already be unlikely.
	k := 7 * 128 // d=7 hypercube arc count
	if b := GeometricSumMeanTail(k, 0.8, 0.25); b > 1e-4 {
		t.Fatalf("Chernoff bound too weak at eps=0.25: %v", b)
	}
	bound := GeometricSumMeanTail(k, 0.8, 0.1)
	if bound > 0.1 {
		t.Fatalf("Chernoff bound too weak: %v", bound)
	}
	// Larger epsilon gives a smaller bound.
	if GeometricSumMeanTail(k, 0.8, 0.5) >= bound {
		t.Fatal("bound should decrease with epsilon")
	}
	// Larger k gives a smaller bound.
	if GeometricSumMeanTail(10*k, 0.8, 0.1) >= bound {
		t.Fatal("bound should decrease with k")
	}
	// Degenerate arguments return the trivial bound 1.
	for _, b := range []float64{
		GeometricSumMeanTail(0, 0.8, 0.1),
		GeometricSumMeanTail(10, 1.0, 0.1),
		GeometricSumMeanTail(10, -0.2, 0.1),
		GeometricSumMeanTail(10, 0.8, 0),
	} {
		if b != 1 {
			t.Fatalf("degenerate case should return 1, got %v", b)
		}
	}
}

// Property: the M/D/1 delay is finite, at least 1, and increasing in rho for
// rho in (0,1).
func TestQuickMD1Monotone(t *testing.T) {
	f := func(a, b uint16) bool {
		r1 := float64(a) / (math.MaxUint16 + 1)
		r2 := float64(b) / (math.MaxUint16 + 1)
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		d1, err1 := MD1{Lambda: r1}.MeanDelay()
		d2, err2 := MD1{Lambda: r2}.MeanDelay()
		if err1 != nil || err2 != nil {
			return true // only hit at rho >= 1, excluded by construction
		}
		return d1 >= 1 && d2 >= 1 && d1 <= d2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
