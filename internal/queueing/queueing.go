// Package queueing collects the closed-form queueing results the paper's
// bounds are built from: the M/D/1 queue (Pollaczek–Khinchine), Brumelle's
// lower bound for the M/D/m queue, and the geometric queue-length
// distribution of a product-form (processor-sharing) station. All formulas
// are for unit service time, matching the paper's convention that packets
// have unit transmission time.
package queueing

import (
	"errors"
	"fmt"
	"math"
)

// ErrUnstable is returned by analytic formulas evaluated at or above the
// stability boundary (utilisation >= 1).
var ErrUnstable = errors.New("queueing: utilisation at or above 1, system unstable")

// MD1 describes an M/D/1 queue with unit (deterministic) service time and
// the given arrival rate, which is also its utilisation.
type MD1 struct {
	Lambda float64
}

// MeanDelay returns the mean sojourn time (waiting plus the unit service),
// 1 + rho/(2(1-rho)) — the Pollaczek–Khinchine formula specialised to
// deterministic service. This is the W_y expression used in the proofs of
// Propositions 3, 13 and 14.
func (q MD1) MeanDelay() (float64, error) {
	rho := q.Lambda
	if rho >= 1 {
		return math.Inf(1), ErrUnstable
	}
	return 1 + rho/(2*(1-rho)), nil
}

// MeanNumber returns the steady-state mean number in system,
// rho + rho^2/(2(1-rho)) — the N̄₁ expression in the proof of Prop. 13.
func (q MD1) MeanNumber() (float64, error) {
	rho := q.Lambda
	if rho >= 1 {
		return math.Inf(1), ErrUnstable
	}
	return rho + rho*rho/(2*(1-rho)), nil
}

// MDm describes an M/D/m queue: m parallel unit-service deterministic
// servers fed by a Poisson stream with total arrival rate Lambda.
type MDm struct {
	Lambda  float64
	Servers int
}

// Utilization returns Lambda/m.
func (q MDm) Utilization() float64 { return q.Lambda / float64(q.Servers) }

// BrumelleLowerBound returns Brumelle's lower bound on the mean sojourn time
// of the M/D/m queue with unit service: D(m; rho) >= 1 + rho/(2m(1-rho)),
// where rho = Lambda/m. This is the bound invoked in the proof of Prop. 2
// (there with m = 2^d, written 1 + rho/(2^{d+1}(1-rho))).
func (q MDm) BrumelleLowerBound() (float64, error) {
	if q.Servers <= 0 {
		return 0, fmt.Errorf("queueing: MDm requires at least one server, got %d", q.Servers)
	}
	rho := q.Utilization()
	if rho >= 1 {
		return math.Inf(1), ErrUnstable
	}
	return 1 + rho/(2*float64(q.Servers)*(1-rho)), nil
}

// ProductFormStation is one station of an open product-form network under a
// symmetric service discipline (processor sharing in the paper's Q̃ and R̃
// networks). With utilisation rho its queue-length distribution is geometric:
// P[n packets] = (1-rho) rho^n.
type ProductFormStation struct {
	Utilization float64
}

// MeanNumber returns rho/(1-rho).
func (s ProductFormStation) MeanNumber() (float64, error) {
	if s.Utilization >= 1 {
		return math.Inf(1), ErrUnstable
	}
	if s.Utilization < 0 {
		return 0, fmt.Errorf("queueing: negative utilisation %v", s.Utilization)
	}
	return s.Utilization / (1 - s.Utilization), nil
}

// GeometricSumMeanTail bounds the tail of a sum of k independent geometric
// random variables with parameter rho (success probability 1-rho) using the
// Chernoff bound: P[Sum >= (1+eps)*k*rho/(1-rho)] <= exp(-k*I) where I is the
// large-deviations rate. The paper uses this argument (end of §3.3) to show
// the total hypercube population is at most d·2^d·rho/(1-rho)·(1+eps) with
// high probability. The function returns the Chernoff exponent bound on the
// probability; callers only need "is it tiny for the parameters at hand".
func GeometricSumMeanTail(k int, rho, eps float64) float64 {
	if k <= 0 || rho <= 0 || rho >= 1 || eps <= 0 {
		return 1
	}
	mean := rho / (1 - rho)
	target := (1 + eps) * mean
	// Optimal tilt for a geometric(1-rho) variable with support {0,1,...}:
	// the moment generating function is (1-rho)/(1-rho*e^t) for e^t < 1/rho.
	// Rate function I(a) = sup_t { t*a - log MGF(t) }, attained at
	// e^t = a / (rho*(1+a)).
	a := target
	et := a / (rho * (1 + a))
	if et <= 1 {
		return 1
	}
	t := math.Log(et)
	logMGF := math.Log(1-rho) - math.Log(1-rho*et)
	rate := t*a - logMGF
	if rate <= 0 {
		return 1
	}
	bound := math.Exp(-float64(k) * rate)
	if bound > 1 {
		return 1
	}
	return bound
}
