// Package bounds encodes every closed-form result of the paper as a named,
// documented function: the stability conditions, the universal and oblivious
// delay lower bounds, the greedy-routing delay bounds for the hypercube, the
// butterfly results, the slotted-time bound and the queue-size estimates. The
// experiment harness evaluates these next to the simulation measurements.
package bounds

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/queueing"
)

// ErrUnstable is returned when a bound is requested at or beyond the
// stability boundary.
var ErrUnstable = errors.New("bounds: load factor at or above 1")

// HypercubeParams collects the model parameters for the hypercube problem.
type HypercubeParams struct {
	// D is the cube dimension.
	D int
	// Lambda is each node's Poisson generation rate.
	Lambda float64
	// P is the bit-flip probability of the destination distribution.
	P float64
}

// Validate checks the parameter ranges.
func (h HypercubeParams) Validate() error {
	if h.D < 1 {
		return fmt.Errorf("bounds: dimension %d < 1", h.D)
	}
	if h.Lambda < 0 {
		return fmt.Errorf("bounds: negative lambda %v", h.Lambda)
	}
	if h.P < 0 || h.P > 1 {
		return fmt.Errorf("bounds: p = %v outside [0,1]", h.P)
	}
	return nil
}

// LoadFactor returns rho = lambda*p (eq. (2)).
func (h HypercubeParams) LoadFactor() float64 { return h.Lambda * h.P }

// MeanHops returns the mean number of arcs a packet must traverse, d*p.
func (h HypercubeParams) MeanHops() float64 { return float64(h.D) * h.P }

// UniversalLowerBound returns the Proposition 2 lower bound on the average
// delay under ANY routing scheme:
//
//	T >= max{ dp, p*D(2^d; rho) } >= (1/2) ( dp + p*(1 + rho/(2^(d+1)(1-rho))) ),
//
// where D(m; rho) is the mean delay of the M/D/m queue with unit service and
// utilisation rho, bounded below via Brumelle's inequality. The function
// returns the right-hand expression, which is what the paper reports.
func (h HypercubeParams) UniversalLowerBound() (float64, error) {
	if err := h.Validate(); err != nil {
		return 0, err
	}
	rho := h.LoadFactor()
	if rho >= 1 {
		return math.Inf(1), ErrUnstable
	}
	servers := 1 << uint(h.D)
	md, err := queueing.MDm{Lambda: rho * float64(servers), Servers: servers}.BrumelleLowerBound()
	if err != nil {
		return math.Inf(1), err
	}
	return 0.5 * (h.MeanHops() + h.P*md), nil
}

// ObliviousLowerBound returns the Proposition 3 lower bound, valid for every
// oblivious, time-independent routing scheme (greedy dimension-order routing
// is one):
//
//	T >= max{ dp, p*(1 + rho/(2(1-rho))) }.
func (h HypercubeParams) ObliviousLowerBound() (float64, error) {
	if err := h.Validate(); err != nil {
		return 0, err
	}
	rho := h.LoadFactor()
	if rho >= 1 {
		return math.Inf(1), ErrUnstable
	}
	md1, err := queueing.MD1{Lambda: rho}.MeanDelay()
	if err != nil {
		return math.Inf(1), err
	}
	return math.Max(h.MeanHops(), h.P*md1), nil
}

// GreedyUpperBound returns the Proposition 12 upper bound on the average
// delay of greedy dimension-order routing: T <= dp/(1-rho).
func (h HypercubeParams) GreedyUpperBound() (float64, error) {
	if err := h.Validate(); err != nil {
		return 0, err
	}
	rho := h.LoadFactor()
	if rho >= 1 {
		return math.Inf(1), ErrUnstable
	}
	return h.MeanHops() / (1 - rho), nil
}

// GreedyLowerBound returns the Proposition 13 lower bound on the average
// delay of greedy dimension-order routing: T >= dp + p*rho/(2(1-rho)).
func (h HypercubeParams) GreedyLowerBound() (float64, error) {
	if err := h.Validate(); err != nil {
		return 0, err
	}
	rho := h.LoadFactor()
	if rho >= 1 {
		return math.Inf(1), ErrUnstable
	}
	return h.MeanHops() + h.P*rho/(2*(1-rho)), nil
}

// SlottedUpperBound returns the §3.4 upper bound for slotted time with slot
// length tau: T <= dp/(1-rho) + tau.
func (h HypercubeParams) SlottedUpperBound(tau float64) (float64, error) {
	if tau <= 0 {
		return 0, fmt.Errorf("bounds: slot length must be positive, got %v", tau)
	}
	base, err := h.GreedyUpperBound()
	if err != nil {
		return base, err
	}
	return base + tau, nil
}

// MeanPacketsPerNodeUpperBound returns the §3.3 bound on the steady-state
// average number of packets stored per hypercube node under greedy routing:
// N/2^d <= d*rho/(1-rho).
func (h HypercubeParams) MeanPacketsPerNodeUpperBound() (float64, error) {
	if err := h.Validate(); err != nil {
		return 0, err
	}
	rho := h.LoadFactor()
	if rho >= 1 {
		return math.Inf(1), ErrUnstable
	}
	return float64(h.D) * rho / (1 - rho), nil
}

// TotalPopulationUpperBound returns the product-form bound on the mean total
// number of packets in the cube, d*2^d*rho/(1-rho) (eq. (13)).
func (h HypercubeParams) TotalPopulationUpperBound() (float64, error) {
	perNode, err := h.MeanPacketsPerNodeUpperBound()
	if err != nil {
		return perNode, err
	}
	return perNode * float64(int(1)<<uint(h.D)), nil
}

// TotalPopulationTailBound returns the Chernoff bound (end of §3.3) on the
// probability that the steady-state total population exceeds
// (1+eps)*d*2^d*rho/(1-rho). The dominating random variable is a sum of
// d*2^d independent geometric variables with mean rho/(1-rho).
func (h HypercubeParams) TotalPopulationTailBound(eps float64) float64 {
	rho := h.LoadFactor()
	k := h.D * (1 << uint(h.D))
	return queueing.GeometricSumMeanTail(k, rho, eps)
}

// HeavyTrafficLimitLowerBound returns the lower end of the interval that
// lim_{rho->1} (1-rho)T must lie in for greedy routing (discussion after
// Prop. 13): p*ρ/2 evaluated at rho -> 1, i.e. p/2.
func (h HypercubeParams) HeavyTrafficLimitLowerBound() float64 { return h.P / 2 }

// HeavyTrafficLimitUpperBound returns the upper end of that interval, dp.
func (h HypercubeParams) HeavyTrafficLimitUpperBound() float64 { return h.MeanHops() }

// PipelinedStabilityLimit returns the approximate largest load factor the
// §2.3 pipelined Valiant–Brebner baseline can sustain: the per-node queue is
// M/G/1 with service time close to R*d, so it requires lambda*R*d < 1, i.e.
// rho < p/(R*d). R is the constant of the Valiant–Brebner analysis
// (R slightly above 1 in practice; the paper quotes "R > 1").
func (h HypercubeParams) PipelinedStabilityLimit(r float64) float64 {
	if r <= 0 || h.D < 1 {
		return 0
	}
	return h.P / (r * float64(h.D))
}

// ButterflyParams collects the model parameters for the butterfly problem.
type ButterflyParams struct {
	// D is the butterfly dimension (d+1 levels).
	D int
	// Lambda is each first-level node's Poisson generation rate.
	Lambda float64
	// P is the row bit-flip probability.
	P float64
}

// Validate checks the parameter ranges.
func (b ButterflyParams) Validate() error {
	if b.D < 1 {
		return fmt.Errorf("bounds: dimension %d < 1", b.D)
	}
	if b.Lambda < 0 {
		return fmt.Errorf("bounds: negative lambda %v", b.Lambda)
	}
	if b.P < 0 || b.P > 1 {
		return fmt.Errorf("bounds: p = %v outside [0,1]", b.P)
	}
	return nil
}

// UniversalLowerBound returns the Proposition 14 lower bound valid under any
// routing scheme:
//
//	T >= d + p*lambda*p/(2(1-lambda*p)) + (1-p)*lambda*(1-p)/(2(1-lambda*(1-p))).
//
// (Each packet crosses exactly d arcs; the two extra terms are the M/D/1
// waiting times at the first-level vertical and straight arcs.)
func (b ButterflyParams) UniversalLowerBound() (float64, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	lv := b.Lambda * b.P
	ls := b.Lambda * (1 - b.P)
	if lv >= 1 || ls >= 1 {
		return math.Inf(1), ErrUnstable
	}
	wv := lv / (2 * (1 - lv))
	ws := ls / (2 * (1 - ls))
	return float64(b.D) + b.P*wv + (1-b.P)*ws, nil
}

// GreedyUpperBound returns the Proposition 17 upper bound for greedy routing
// on the butterfly: T <= d*p/(1-lambda*p) + d*(1-p)/(1-lambda*(1-p)).
func (b ButterflyParams) GreedyUpperBound() (float64, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	lv := b.Lambda * b.P
	ls := b.Lambda * (1 - b.P)
	if lv >= 1 || ls >= 1 {
		return math.Inf(1), ErrUnstable
	}
	return float64(b.D)*b.P/(1-lv) + float64(b.D)*(1-b.P)/(1-ls), nil
}
