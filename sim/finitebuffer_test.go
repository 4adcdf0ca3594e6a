package sim_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
	"repro/sim"
)

// Exact answers for the fault model. In a greedy d = 1 hypercube with p = 1
// every packet crosses the one arc out of its origin, whose arrivals are
// Poisson(λ) with λ = ρ, so each arc is an exactly solvable queue with room
// for K = B + 1 packets: buffer_capacity B waiting, plus the one in service.

// poisson returns the Poisson(mean) probabilities of 0..n-1.
func poisson(mean float64, n int) []float64 {
	a := make([]float64, n)
	a[0] = math.Exp(-mean)
	for k := 1; k < n; k++ {
		a[k] = a[k-1] * mean / float64(k)
	}
	return a
}

// stationary returns the stationary law of the chain on 0..n-1 that moves
// from i to min(max(i−1, 0) + A, n−1) with A ~ Poisson(mean), by power
// iteration: the chain is finite, irreducible and aperiodic (state 0 keeps
// itself with probability e^{−mean}), so it converges geometrically.
func stationary(mean float64, n int) []float64 {
	a := poisson(mean, n)
	pi := make([]float64, n)
	pi[0] = 1
	for range 10000 {
		next := make([]float64, n)
		for i, p := range pi {
			base, stay := max(i-1, 0), 1.0
			for j := base; j < n-1; j++ {
				next[j] += p * a[j-base]
				stay -= a[j-base]
			}
			next[n-1] += p * stay
		}
		pi = next
	}
	return pi
}

// md1kLoss is the loss probability of the continuous-time M/D/1/K queue with
// K = b + 1 at load rho: the chain of the number left behind at departures
// lives on 0..K−1, and with π_d(0) its mass at 0, PASTA gives
// P_K = 1 − 1/(π_d(0) + ρ).
func md1kLoss(rho float64, b int) float64 {
	return 1 - 1/(stationary(rho, b+1)[0]+rho)
}

// slottedLoss is the loss ratio of the slotted (τ = 1) queue: at every tick
// the completion comes first, then a Poisson(λ) batch joins up to b + 1
// places, so the number in system after a tick moves from N to
// min(max(N−1, 0) + A, b+1). The loss is the mean overflow per slot over λ;
// given N, the overflow is (X − c)^+ with X = max(N−1, 0) + A and c = b + 1,
// whose mean is E[X] − c + E[(c − X)^+].
func slottedLoss(lambda float64, b int) float64 {
	c := b + 1
	pi, a := stationary(lambda, c+1), poisson(lambda, c+1)
	overflow := 0.0
	for n, p := range pi {
		base := max(n-1, 0)
		e := float64(base) + lambda - float64(c)
		for k := 0; k < c-base; k++ {
			e += a[k] * float64(c-base-k)
		}
		overflow += p * e
	}
	return overflow / lambda
}

// TestFiniteBufferSolvers pins the two solvers: at B = 0 the continuous
// loss is ρ/(1+ρ) (M/G/1/1) and the slotted one 1 − (1 − e^{−λ})/λ, and at
// ρ = 0.8 they give the values recomputed independently to five places.
func TestFiniteBufferSolvers(t *testing.T) {
	for _, rho := range []float64{0.3, 0.8, 1.5} {
		if got, want := md1kLoss(rho, 0), rho/(1+rho); math.Abs(got-want) > 1e-12 {
			t.Errorf("continuous B=0 rho=%v: loss %v, want %v", rho, got, want)
		}
		if got, want := slottedLoss(rho, 0), 1-(1-math.Exp(-rho))/rho; math.Abs(got-want) > 1e-12 {
			t.Errorf("slotted B=0 lambda=%v: loss %v, want %v", rho, got, want)
		}
	}
	for _, tc := range []struct {
		b                   int
		continuous, slotted float64
	}{
		{1, 0.19957, 0.14400},
		{2, 0.10330, 0.07804},
		{4, 0.03529, 0.02793},
	} {
		if got := md1kLoss(0.8, tc.b); math.Abs(got-tc.continuous) > 5e-6 {
			t.Errorf("continuous B=%d: loss %.6f, want %.5f", tc.b, got, tc.continuous)
		}
		if got := slottedLoss(0.8, tc.b); math.Abs(got-tc.slotted) > 5e-6 {
			t.Errorf("slotted B=%d: loss %.6f, want %.5f", tc.b, got, tc.slotted)
		}
	}
	if got := (1 - md1kLoss(0.8, 2)) * 0.9; math.Abs(got-0.80703) > 5e-6 {
		t.Errorf("continuous B=2 f=0.1: delivery ratio %.6f, want 0.80703", got)
	}
}

// TestFiniteBufferMatchesExact checks the simulated fault model against the
// exact queues at ρ = 0.8, on the slot kernel (sim.Run) and on the reference
// simulator (RunOracle): the overflow share of the packets whose fate was
// decided, at B ∈ {1, 2, 4} under both arrival models, and the delivery ratio
// with arc_fail_prob f = 0.1, which only thins: (1 − P_K)(1 − f). Each case
// runs 20 seeds of horizon 20,000 and requires the mean of the per-seed
// values within 5 standard errors of the exact one. With normal per-seed
// values the mean's t statistic has 19 degrees of freedom, so a case fails
// by chance with probability 8.0e-5, and the 14 cases together with
// probability below 1.2e-3; the fixed seeds make the outcome deterministic.
func TestFiniteBufferMatchesExact(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("280 runs of 32k packets are disproportionate under the race detector")
	}
	const rho, reps, horizon, z = 0.8, 20, 20000, 5.0
	type counts struct{ delivered, dropped, overflow int64 }
	engines := []struct {
		name string
		run  func(sim.Scenario) (counts, error)
	}{
		{"kernel", func(sc sim.Scenario) (counts, error) {
			res, err := sim.Run(context.Background(), sc)
			if err != nil {
				return counts{}, err
			}
			f := res.Faults
			return counts{f.Delivered, f.DroppedFault, f.DroppedOverflow}, nil
		}},
		{"oracle", func(sc sim.Scenario) (counts, error) {
			res, err := sim.RunOracle(sc)
			return counts{res.Delivered, res.DroppedFault, res.DroppedOverflow}, err
		}},
	}
	type testCase struct {
		slotted bool
		b       int
		f       float64
		want    float64
	}
	var cases []testCase
	for _, b := range []int{1, 2, 4} {
		cases = append(cases, testCase{false, b, 0, md1kLoss(rho, b)}, testCase{true, b, 0, slottedLoss(rho, b)})
	}
	cases = append(cases, testCase{false, 2, 0.1, (1 - md1kLoss(rho, 2)) * 0.9})
	for _, tc := range cases {
		model, metric := "continuous", "loss"
		if tc.slotted {
			model = "slotted"
		}
		if tc.f > 0 {
			metric = fmt.Sprintf("delivery ratio at f=%v", tc.f)
		}
		for _, e := range engines {
			t.Run(fmt.Sprintf("%s/B=%d/f=%v/%s", model, tc.b, tc.f, e.name), func(t *testing.T) {
				var values stats.Tally
				for seed := range uint64(reps) {
					sc := sim.Scenario{
						Topology: sim.Hypercube(1), P: 1, LoadFactor: rho, Horizon: horizon, Seed: seed + 1,
						Faults: &sim.FaultSpec{BufferCapacity: tc.b, ArcFailProb: tc.f},
					}
					if tc.slotted {
						sc.Slotted, sc.Tau = true, 1
					}
					c, err := e.run(sc)
					if err != nil {
						t.Fatal(err)
					}
					decided := float64(c.delivered + c.dropped + c.overflow)
					if tc.f > 0 {
						values.Add(float64(c.delivered) / decided)
					} else {
						values.Add(float64(c.overflow) / decided)
					}
				}
				diff := values.Mean() - tc.want
				msg := fmt.Sprintf("%s %.5f ± %.5f (1 SE) over %d seeds, exact %.5f (z = %.2f)",
					metric, values.Mean(), values.StdError(), reps, tc.want, diff/values.StdError())
				if math.Abs(diff) > z*values.StdError() {
					t.Error(msg)
				}
				t.Log(msg)
			})
		}
	}
}
