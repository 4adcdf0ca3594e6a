package bounds

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestHypercubeValidate(t *testing.T) {
	good := HypercubeParams{D: 5, Lambda: 1, P: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []HypercubeParams{
		{D: 0, Lambda: 1, P: 0.5},
		{D: 3, Lambda: -1, P: 0.5},
		{D: 3, Lambda: 1, P: -0.1},
		{D: 3, Lambda: 1, P: 1.1},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
		if _, err := b.GreedyUpperBound(); err == nil {
			t.Fatalf("case %d: GreedyUpperBound accepted invalid params", i)
		}
		if _, err := b.GreedyLowerBound(); err == nil {
			t.Fatalf("case %d: GreedyLowerBound accepted invalid params", i)
		}
		if _, err := b.UniversalLowerBound(); err == nil {
			t.Fatalf("case %d: UniversalLowerBound accepted invalid params", i)
		}
		if _, err := b.ObliviousLowerBound(); err == nil {
			t.Fatalf("case %d: ObliviousLowerBound accepted invalid params", i)
		}
		if _, err := b.MeanPacketsPerNodeUpperBound(); err == nil {
			t.Fatalf("case %d: MeanPacketsPerNodeUpperBound accepted invalid params", i)
		}
	}
}

func TestHypercubeLoadFactorAndStability(t *testing.T) {
	h := HypercubeParams{D: 7, Lambda: 1.6, P: 0.5}
	if !almostEqual(h.LoadFactor(), 0.8, 1e-12) {
		t.Fatalf("load factor %v", h.LoadFactor())
	}
	if !almostEqual(h.MeanHops(), 3.5, 1e-12) {
		t.Fatalf("mean hops %v", h.MeanHops())
	}
}

func TestGreedyBoundsKnownValues(t *testing.T) {
	// d=8, p=1/2, rho=0.8: upper bound = 4/0.2 = 20,
	// lower bound = 4 + 0.5*0.8/(2*0.2) = 5.
	h := HypercubeParams{D: 8, Lambda: 1.6, P: 0.5}
	up, err := h.GreedyUpperBound()
	if err != nil || !almostEqual(up, 20, 1e-9) {
		t.Fatalf("upper = %v err %v", up, err)
	}
	lo, err := h.GreedyLowerBound()
	if err != nil || !almostEqual(lo, 5, 1e-9) {
		t.Fatalf("lower = %v err %v", lo, err)
	}
}

func TestGreedyBoundsUnstable(t *testing.T) {
	h := HypercubeParams{D: 4, Lambda: 2, P: 0.5}
	if _, err := h.GreedyUpperBound(); err != ErrUnstable {
		t.Fatal("expected ErrUnstable")
	}
	if _, err := h.GreedyLowerBound(); err != ErrUnstable {
		t.Fatal("expected ErrUnstable")
	}
	if _, err := h.UniversalLowerBound(); err != ErrUnstable {
		t.Fatal("expected ErrUnstable")
	}
	if _, err := h.ObliviousLowerBound(); err != ErrUnstable {
		t.Fatal("expected ErrUnstable")
	}
	if _, err := h.MeanPacketsPerNodeUpperBound(); err != ErrUnstable {
		t.Fatal("expected ErrUnstable")
	}
	if _, err := h.TotalPopulationUpperBound(); err != ErrUnstable {
		t.Fatal("expected ErrUnstable")
	}
	if _, err := h.SlottedUpperBound(0.5); err != ErrUnstable {
		t.Fatal("expected ErrUnstable")
	}
}

func TestBoundOrderingHypercube(t *testing.T) {
	// For every stable parameter choice the bounds must nest:
	// universal <= oblivious <= greedy lower <= greedy upper.
	for _, d := range []int{3, 5, 8, 10} {
		for _, p := range []float64{0.1, 0.5, 0.9} {
			for _, rho := range []float64{0.2, 0.6, 0.9, 0.97} {
				h := HypercubeParams{D: d, Lambda: rho / p, P: p}
				uni, err := h.UniversalLowerBound()
				if err != nil {
					t.Fatal(err)
				}
				obl, err := h.ObliviousLowerBound()
				if err != nil {
					t.Fatal(err)
				}
				lo, err := h.GreedyLowerBound()
				if err != nil {
					t.Fatal(err)
				}
				up, err := h.GreedyUpperBound()
				if err != nil {
					t.Fatal(err)
				}
				if uni > obl+1e-9 {
					t.Fatalf("d=%d p=%v rho=%v: universal %v > oblivious %v", d, p, rho, uni, obl)
				}
				if obl > lo+1e-9 {
					t.Fatalf("d=%d p=%v rho=%v: oblivious %v > greedy lower %v", d, p, rho, obl, lo)
				}
				if lo > up+1e-9 {
					t.Fatalf("d=%d p=%v rho=%v: greedy lower %v > upper %v", d, p, rho, lo, up)
				}
			}
		}
	}
}

func TestGreedyUpperBoundIsODofD(t *testing.T) {
	// For fixed rho the upper bound grows linearly in d: doubling d doubles
	// the bound.
	h1 := HypercubeParams{D: 5, Lambda: 1.8, P: 0.5}
	h2 := HypercubeParams{D: 10, Lambda: 1.8, P: 0.5}
	b1, _ := h1.GreedyUpperBound()
	b2, _ := h2.GreedyUpperBound()
	if !almostEqual(b2, 2*b1, 1e-9) {
		t.Fatalf("bound not linear in d: %v vs %v", b1, b2)
	}
}

func TestSlottedUpperBound(t *testing.T) {
	h := HypercubeParams{D: 6, Lambda: 1.4, P: 0.5}
	base, _ := h.GreedyUpperBound()
	s, err := h.SlottedUpperBound(0.5)
	if err != nil || !almostEqual(s, base+0.5, 1e-12) {
		t.Fatalf("slotted bound %v err %v", s, err)
	}
	if _, err := h.SlottedUpperBound(0); err == nil {
		t.Fatal("expected error for non-positive tau")
	}
}

func TestQueueSizeBounds(t *testing.T) {
	h := HypercubeParams{D: 6, Lambda: 1.6, P: 0.5}
	perNode, err := h.MeanPacketsPerNodeUpperBound()
	if err != nil || !almostEqual(perNode, 6*0.8/0.2, 1e-9) {
		t.Fatalf("per-node bound %v err %v", perNode, err)
	}
	total, err := h.TotalPopulationUpperBound()
	if err != nil || !almostEqual(total, perNode*64, 1e-9) {
		t.Fatalf("total bound %v err %v", total, err)
	}
	// The tail bound is a probability and decreases with eps.
	b1 := h.TotalPopulationTailBound(0.1)
	b2 := h.TotalPopulationTailBound(0.3)
	if b1 < 0 || b1 > 1 || b2 < 0 || b2 > 1 {
		t.Fatal("tail bounds must be probabilities")
	}
	if b2 > b1 {
		t.Fatal("tail bound should decrease with eps")
	}
}

func TestHeavyTrafficLimits(t *testing.T) {
	h := HypercubeParams{D: 6, Lambda: 1.9, P: 0.5}
	lo := h.HeavyTrafficLimitLowerBound()
	hi := h.HeavyTrafficLimitUpperBound()
	if !almostEqual(lo, 0.25, 1e-12) || !almostEqual(hi, 3, 1e-12) {
		t.Fatalf("heavy traffic limits %v, %v", lo, hi)
	}
	if lo > hi {
		t.Fatal("heavy traffic interval empty")
	}
	// (1-rho)*upper bound must converge to the upper limit as rho -> 1.
	for _, rho := range []float64{0.9, 0.99, 0.999} {
		hh := HypercubeParams{D: 6, Lambda: rho / 0.5, P: 0.5}
		up, _ := hh.GreedyUpperBound()
		if math.Abs((1-rho)*up-hi) > 1e-9 {
			t.Fatalf("(1-rho)*upper = %v, want %v", (1-rho)*up, hi)
		}
	}
}

func TestPipelinedStabilityLimit(t *testing.T) {
	h := HypercubeParams{D: 10, Lambda: 1, P: 0.5}
	limit := h.PipelinedStabilityLimit(1.5)
	if !almostEqual(limit, 0.5/(1.5*10), 1e-12) {
		t.Fatalf("pipelined limit %v", limit)
	}
	// The pipelined limit vanishes with d while greedy sustains rho < 1.
	if limit > 0.05 {
		t.Fatal("pipelined limit should be far below 1 for d=10")
	}
	if h.PipelinedStabilityLimit(0) != 0 {
		t.Fatal("non-positive R should give 0")
	}
}

func TestButterflyValidate(t *testing.T) {
	good := ButterflyParams{D: 5, Lambda: 1, P: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []ButterflyParams{
		{D: 0, Lambda: 1, P: 0.5},
		{D: 3, Lambda: -1, P: 0.5},
		{D: 3, Lambda: 1, P: 2},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
		if _, err := b.GreedyUpperBound(); err == nil {
			t.Fatalf("case %d: GreedyUpperBound accepted invalid params", i)
		}
		if _, err := b.UniversalLowerBound(); err == nil {
			t.Fatalf("case %d: UniversalLowerBound accepted invalid params", i)
		}
	}
}

func TestButterflyBoundsKnownValues(t *testing.T) {
	// d=5, p=1/2, lambda=1.6: both arc types have utilisation 0.8;
	// upper bound = 5*0.5/0.2 + 5*0.5/0.2 = 25;
	// universal lower = 5 + 0.5*(0.8/(2*0.2))*2 = 5 + 2 = 7.
	b := ButterflyParams{D: 5, Lambda: 1.6, P: 0.5}
	up, err := b.GreedyUpperBound()
	if err != nil || !almostEqual(up, 25, 1e-9) {
		t.Fatalf("upper %v err %v", up, err)
	}
	lo, err := b.UniversalLowerBound()
	if err != nil || !almostEqual(lo, 7, 1e-9) {
		t.Fatalf("lower %v err %v", lo, err)
	}
	if lo > up {
		t.Fatal("lower bound exceeds upper bound")
	}
}

func TestButterflyBoundsUnstable(t *testing.T) {
	b := ButterflyParams{D: 4, Lambda: 2.5, P: 0.5}
	if _, err := b.GreedyUpperBound(); err != ErrUnstable {
		t.Fatal("expected ErrUnstable")
	}
	if _, err := b.UniversalLowerBound(); err != ErrUnstable {
		t.Fatal("expected ErrUnstable")
	}
	// Asymmetric p: only one arc type saturates but that is enough.
	c := ButterflyParams{D: 4, Lambda: 1.3, P: 0.8}
	if _, err := c.GreedyUpperBound(); err != ErrUnstable {
		t.Fatal("expected ErrUnstable for asymmetric saturation")
	}
}

// Property: for all stable parameters, greedy lower <= greedy upper and both
// scale linearly in d.
func TestQuickGreedyBoundsConsistent(t *testing.T) {
	f := func(dRaw, pRaw, rhoRaw uint8) bool {
		d := int(dRaw)%12 + 1
		p := 0.05 + 0.9*float64(pRaw)/255
		rho := 0.05 + 0.9*float64(rhoRaw)/255
		h := HypercubeParams{D: d, Lambda: rho / p, P: p}
		lo, err1 := h.GreedyLowerBound()
		up, err2 := h.GreedyUpperBound()
		if err1 != nil || err2 != nil {
			return false
		}
		if lo > up+1e-9 {
			return false
		}
		// Doubling d doubles the upper bound and adds dp to the lower bound.
		h2 := HypercubeParams{D: 2 * d, Lambda: rho / p, P: p}
		up2, err := h2.GreedyUpperBound()
		if err != nil {
			return false
		}
		return almostEqual(up2, 2*up, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the butterfly upper bound is symmetric in p <-> 1-p.
func TestQuickButterflyBoundSymmetry(t *testing.T) {
	f := func(dRaw, pRaw, rhoRaw uint8) bool {
		d := int(dRaw)%10 + 1
		p := 0.05 + 0.9*float64(pRaw)/255
		rho := 0.05 + 0.9*float64(rhoRaw)/255
		lambda := rho / math.Max(p, 1-p)
		a := ButterflyParams{D: d, Lambda: lambda, P: p}
		b := ButterflyParams{D: d, Lambda: lambda, P: 1 - p}
		ua, err1 := a.GreedyUpperBound()
		ub, err2 := b.GreedyUpperBound()
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(ua, ub, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
