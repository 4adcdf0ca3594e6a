// Package workload generates the traffic the paper's model prescribes: every
// node (hypercube) or first-level row (butterfly) generates packets according
// to an independent Poisson process with rate lambda, and each packet picks
// its destination by flipping each origin bit independently with probability
// p (eq. (1) of the paper). The package also provides arbitrary
// translation-invariant distributions (§2.2), slotted batch arrivals (§3.4)
// and permutation workloads for the non-greedy baseline of §2.3.
package workload

import (
	"fmt"
	"math"

	"repro/internal/butterfly"
	"repro/internal/hypercube"
	"repro/internal/xrand"
)

// DestinationDist chooses a destination node for a packet generated at the
// given origin of a d-dimensional hypercube.
type DestinationDist interface {
	// Sample returns the destination for a packet originating at origin.
	Sample(origin hypercube.Node, rng *xrand.Rand) hypercube.Node
	// FlipProbability returns the per-dimension probability that a packet
	// must cross that dimension (the p_j of §2.2); for the bit-flip
	// distribution it is the same for every dimension.
	FlipProbability(dim hypercube.Dimension) float64
}

// BitFlip is the paper's destination distribution: each of the d origin bits
// is flipped independently with probability P.
type BitFlip struct {
	D int
	P float64
}

// NewBitFlip validates and returns a BitFlip distribution.
func NewBitFlip(d int, p float64) BitFlip {
	if d < 1 {
		panic(fmt.Sprintf("workload: BitFlip requires d >= 1, got %d", d))
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("workload: BitFlip requires p in [0,1], got %v", p))
	}
	return BitFlip{D: d, P: p}
}

// Sample flips each bit of origin independently with probability P. At
// P = 1/2 — uniform traffic, the paper's default — all d flips are sampled
// with a single uniform draw (every bit of a random word is an independent
// fair coin), which is the destination-sampling hot path of both simulation
// kernels.
func (b BitFlip) Sample(origin hypercube.Node, rng *xrand.Rand) hypercube.Node {
	if b.P == 0.5 {
		return origin ^ hypercube.Node(rng.Uint64n(uint64(1)<<uint(b.D)))
	}
	dest := origin
	for m := 0; m < b.D; m++ {
		if rng.Bernoulli(b.P) {
			dest ^= hypercube.Node(1) << uint(m)
		}
	}
	return dest
}

// FlipProbability returns P for every dimension.
func (b BitFlip) FlipProbability(hypercube.Dimension) float64 { return b.P }

// TranslationInvariant is the general destination distribution of §2.2: the
// probability that a packet from x goes to z depends only on the difference
// vector x XOR z, with probability Weights[x XOR z] (normalised).
type TranslationInvariant struct {
	D       int
	weights []float64
	cum     []float64
}

// NewTranslationInvariant builds the distribution from the 2^d weights
// indexed by difference vector. Weights must be non-negative and not all
// zero; they are normalised internally.
func NewTranslationInvariant(d int, weights []float64) *TranslationInvariant {
	n := 1 << uint(d)
	if len(weights) != n {
		panic(fmt.Sprintf("workload: TranslationInvariant needs %d weights, got %d", n, len(weights)))
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("workload: negative or NaN weight at %d", i))
		}
		total += w
	}
	if total == 0 {
		panic("workload: TranslationInvariant weights sum to zero")
	}
	t := &TranslationInvariant{D: d, weights: make([]float64, n), cum: make([]float64, n)}
	run := 0.0
	for i, w := range weights {
		t.weights[i] = w / total
		run += w / total
		t.cum[i] = run
	}
	t.cum[n-1] = 1 // guard against rounding
	return t
}

// Sample draws a difference vector according to the weights and applies it.
func (t *TranslationInvariant) Sample(origin hypercube.Node, rng *xrand.Rand) hypercube.Node {
	u := rng.Float64()
	// Binary search the cumulative table.
	lo, hi := 0, len(t.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if t.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return origin ^ hypercube.Node(lo)
}

// FlipProbability returns p_j = sum of weights of difference vectors whose
// bit j is set — the per-dimension load factor contribution of §2.2.
func (t *TranslationInvariant) FlipProbability(dim hypercube.Dimension) float64 {
	bit := 1 << uint(dim-1)
	total := 0.0
	for v, w := range t.weights {
		if v&bit != 0 {
			total += w
		}
	}
	return total
}

// RowBitFlip is the butterfly analogue of BitFlip (§4.2).
type RowBitFlip struct {
	D int
	P float64
}

// NewRowBitFlip validates and returns a RowBitFlip distribution.
func NewRowBitFlip(d int, p float64) RowBitFlip {
	if d < 1 {
		panic(fmt.Sprintf("workload: RowBitFlip requires d >= 1, got %d", d))
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("workload: RowBitFlip requires p in [0,1], got %v", p))
	}
	return RowBitFlip{D: d, P: p}
}

// SampleRow flips each origin-row bit independently with probability P; at
// P = 1/2 all d flips come from a single uniform draw (see BitFlip.Sample).
func (b RowBitFlip) SampleRow(origin butterfly.Row, rng *xrand.Rand) butterfly.Row {
	if b.P == 0.5 {
		return origin ^ butterfly.Row(rng.Uint64n(uint64(1)<<uint(b.D)))
	}
	dest := origin
	for m := 0; m < b.D; m++ {
		if rng.Bernoulli(b.P) {
			dest ^= butterfly.Row(1) << uint(m)
		}
	}
	return dest
}

// TimingStream separates the stream that drives a source's arrival
// timing (inter-arrival gaps, batch sizes) from the stream that drives its
// per-packet payload sampling (destinations). Payload streams use the node
// index directly (0..N-1) and the simulators' auxiliary streams use small
// fixed tags, so an offset of 2^40 cannot collide with either. Keeping the
// two processes on separate streams is what lets the timing draws be buffered
// in bulk (xrand.FillExp / FillPoisson) without the interleaved destination
// draws changing the sample path.
const TimingStream = uint64(1) << 40

// sourceGapBuffer is the number of timing draws a source buffers ahead. The
// values are identical to scalar draws (the bulk fillers are bit-exact), so
// the buffer size only trades set-up amortisation against lookahead waste.
const sourceGapBuffer = 32

// PoissonSource models one node's packet-generating Poisson process in
// continuous time. Successive inter-arrival times are exponential with the
// source's rate. Each source carries two private random streams — one for the
// arrival gaps, one for per-packet payload sampling (RNG) — so that different
// nodes generate independently, runs are reproducible no matter how events
// interleave, and gaps can be pre-drawn in bulk.
type PoissonSource struct {
	Rate float64
	rng  *xrand.Rand // payload stream (destination sampling via RNG)
	gaps *xrand.Rand // timing stream
	buf  [sourceGapBuffer]float64
	pos  int
	next float64
}

// NewPoissonSource creates a source with the given rate whose randomness is
// derived from (seed, stream). A non-positive rate yields a source that never
// generates (NextArrival returns +Inf).
func NewPoissonSource(rate float64, seed, stream uint64) *PoissonSource {
	s := &PoissonSource{
		rng:  xrand.NewStream(seed, stream),
		gaps: xrand.NewStream(seed, stream+TimingStream),
	}
	s.reset(rate)
	return s
}

// Reseed re-initialises the source in place to the exact state
// NewPoissonSource(rate, seed, stream) would produce, reusing both
// generators; pooled simulators call it once per replication.
func (s *PoissonSource) Reseed(rate float64, seed, stream uint64) {
	s.rng.SeedStream(seed, stream)
	s.gaps.SeedStream(seed, stream+TimingStream)
	s.reset(rate)
}

func (s *PoissonSource) reset(rate float64) {
	s.Rate = rate
	s.pos = len(s.buf)
	s.next = s.draw(0)
}

func (s *PoissonSource) draw(now float64) float64 {
	if s.Rate <= 0 {
		return math.Inf(1)
	}
	if s.pos == len(s.buf) {
		s.gaps.FillExp(s.buf[:], s.Rate)
		s.pos = 0
	}
	g := s.buf[s.pos]
	s.pos++
	return now + g
}

// NextArrival returns the time of the source's next arrival.
func (s *PoissonSource) NextArrival() float64 { return s.next }

// Advance consumes the pending arrival and draws the next one.
func (s *PoissonSource) Advance() {
	s.next = s.draw(s.next)
}

// RNG exposes the source's payload stream so the caller can sample the
// packet's destination from it (keeping the whole per-node sample path
// reproducible and independent of other nodes).
func (s *PoissonSource) RNG() *xrand.Rand { return s.rng }

// SlottedSource models the slotted-time arrival process of §3.4: at the start
// of every slot of length Tau the node generates a Poisson(Rate*Tau) batch of
// packets. Like PoissonSource it keeps batch-size draws and payload draws on
// separate streams, buffering the batch sizes through xrand.FillPoisson.
type SlottedSource struct {
	Rate   float64
	Tau    float64
	rng    *xrand.Rand // payload stream (destination sampling via RNG)
	counts *xrand.Rand // batch-size stream
	buf    [sourceGapBuffer]int
	pos    int
}

// NewSlottedSource creates a slotted source. Tau must be positive.
func NewSlottedSource(rate, tau float64, seed, stream uint64) *SlottedSource {
	if tau <= 0 {
		panic(fmt.Sprintf("workload: SlottedSource requires tau > 0, got %v", tau))
	}
	s := &SlottedSource{
		Rate:   rate,
		Tau:    tau,
		rng:    xrand.NewStream(seed, stream),
		counts: xrand.NewStream(seed, stream+TimingStream),
	}
	s.pos = len(s.buf)
	return s
}

// Reseed re-initialises the source in place to the exact state
// NewSlottedSource(rate, tau, seed, stream) would produce. Tau must be
// positive.
func (s *SlottedSource) Reseed(rate, tau float64, seed, stream uint64) {
	if tau <= 0 {
		panic(fmt.Sprintf("workload: SlottedSource requires tau > 0, got %v", tau))
	}
	s.Rate, s.Tau = rate, tau
	s.rng.SeedStream(seed, stream)
	s.counts.SeedStream(seed, stream+TimingStream)
	s.pos = len(s.buf)
}

// BatchSize draws the number of packets generated at the start of a slot.
func (s *SlottedSource) BatchSize() int {
	if s.Rate <= 0 {
		return 0
	}
	if s.pos == len(s.buf) {
		s.counts.FillPoisson(s.buf[:], s.Rate*s.Tau)
		s.pos = 0
	}
	n := s.buf[s.pos]
	s.pos++
	return n
}

// RNG exposes the source's payload stream for destination sampling.
func (s *SlottedSource) RNG() *xrand.Rand { return s.rng }

// Permutation returns a uniformly random permutation destination assignment
// for the 2^d nodes: node i sends to perm[i], with perm a uniform permutation
// (the workload of the static problem in §1.2 and of the §2.3 baselines).
func Permutation(d int, rng *xrand.Rand) []hypercube.Node {
	n := 1 << uint(d)
	p := rng.Perm(n)
	dest := make([]hypercube.Node, n)
	for i := range p {
		dest[i] = hypercube.Node(p[i])
	}
	return dest
}

// RequiredLambdaButterfly returns the lambda that achieves the target load
// factor rho for the given p on the butterfly.
func RequiredLambdaButterfly(rho, p float64) float64 {
	m := math.Max(p, 1-p)
	if m <= 0 {
		panic("workload: max{p,1-p} must be positive")
	}
	return rho / m
}
