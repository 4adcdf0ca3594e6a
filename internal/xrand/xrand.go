// Package xrand provides deterministic, splittable pseudo-random number
// generation and the distribution samplers used throughout the simulator.
//
// The simulator needs reproducible runs (a fixed seed must produce an
// identical sample path), cheap creation of many statistically independent
// streams (one per traffic source, one per routing decision stream), and a
// handful of distributions: exponential inter-arrival times, Poisson batch
// sizes and Bernoulli bit flips. The package is self-contained so that the
// rest of the repository does not depend on the global state of math/rand.
//
// The core generator is xoshiro256** seeded through SplitMix64, the
// combination recommended by Blackman and Vigna. Streams are derived by
// jumping the SplitMix64 seed sequence, which keeps independently seeded
// streams decorrelated even when their user-visible seeds are consecutive
// integers.
package xrand

import (
	"math"
	"math/bits"
)

// Reserved stream identifiers for NewStream/SeedStream. The simulation
// kernels also derive per-entity streams from small integers (per-node source
// streams use the node index, up to 2^20), so the reserved identifiers live
// above 2^32 where they cannot collide with any entity index.
const (
	// StreamFault seeds the dedicated fault-injection stream: transient
	// link-fault draws, consumed once per transmission completion when a
	// scenario sets a positive arc_fail_prob. Keeping fault randomness on its
	// own stream is what makes faultless runs byte-identical to builds that
	// predate fault injection.
	StreamFault uint64 = 0xFA17_0000_0001
	// StreamOutage is the base stream for resolving fractional outage arc
	// subsets; outage i draws from StreamOutage + i.
	StreamOutage uint64 = 0xFA17_0001_0000
	// StreamDiscipline seeds the RandomOrder discipline's draws, one per
	// service start from a non-empty waiting queue. It predates the rule
	// above: it is below 2^32, and the sample paths of random-order runs
	// depend on its value.
	StreamDiscipline uint64 = 0xD15C
)

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding the main generator and for deriving streams.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic pseudo-random generator (xoshiro256**) together
// with the samplers used by the simulator. It is not safe for concurrent use;
// create one Rand per goroutine with NewStream.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed. Two generators built
// from the same seed produce identical sequences.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// NewStream returns the stream-th generator derived from seed. Streams with
// the same seed but different stream indices are decorrelated; the mapping is
// deterministic so simulations remain reproducible.
func NewStream(seed uint64, stream uint64) *Rand {
	// Mix the stream index into the seed sequence far enough that adjacent
	// streams do not share low-entropy prefixes.
	sm := seed
	_ = splitMix64(&sm)
	sm ^= 0x6a09e667f3bcc909 * (stream + 1)
	_ = splitMix64(&sm)
	r := &Rand{}
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	r.normalizeState()
	return r
}

// SplitSeed derives the index-th child seed from a base seed. Child seeds are
// decorrelated from each other and from the base seed even when base or index
// are consecutive small integers, so they can seed independent simulation
// shards or replications. The mapping is deterministic: the same (base, index)
// pair always yields the same child, which is what makes sharded runs
// reproducible regardless of how shards are scheduled.
func SplitSeed(base, index uint64) uint64 {
	sm := base
	_ = splitMix64(&sm)
	sm ^= 0x6a09e667f3bcc909 * (index + 1)
	_ = splitMix64(&sm)
	return splitMix64(&sm)
}

// Seed resets the generator state from seed.
func (r *Rand) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	r.normalizeState()
}

// SeedStream resets the generator in place to the exact state NewStream(seed,
// stream) would produce. Pooled simulators use it to re-seed long-lived
// generators between replications without allocating.
func (r *Rand) SeedStream(seed uint64, stream uint64) {
	sm := seed
	_ = splitMix64(&sm)
	sm ^= 0x6a09e667f3bcc909 * (stream + 1)
	_ = splitMix64(&sm)
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	r.normalizeState()
}

// normalizeState guards against the (astronomically unlikely, but fatal)
// all-zero state of xoshiro256**.
func (r *Rand) normalizeState() {
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9

	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)

	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's unbiased
// multiply-shift rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with zero bound")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		threshold := (-n) % n
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Bernoulli returns true with probability p. Values of p outside [0,1] are
// clamped.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exp called with non-positive rate")
	}
	// Use 1-U to avoid log(0); U is in [0,1) so 1-U is in (0,1].
	return -math.Log(1-r.Float64()) / rate
}

// Poisson returns a Poisson-distributed integer with the given mean.
// For small means it uses Knuth's product-of-uniforms method; for large
// means it uses the PTRS transformed-rejection method of Hörmann, which is
// exact and runs in O(1) expected time.
func (r *Rand) Poisson(mean float64) int {
	switch {
	case mean <= 0:
		return 0
	case mean < 30:
		return r.poissonKnuth(math.Exp(-mean))
	default:
		p := newPTRSParams(mean)
		return r.poissonPTRS(&p)
	}
}

// FillExp fills dst with independent exponential draws of the given rate. The
// values are exactly the ones len(dst) successive Exp calls would return, so
// arrival generators can buffer inter-arrival gaps ahead of time without
// changing the sample path; the bulk form amortises the per-call overhead
// across the batch. It panics if rate <= 0.
func (r *Rand) FillExp(dst []float64, rate float64) {
	if rate <= 0 {
		panic("xrand: FillExp called with non-positive rate")
	}
	for i := range dst {
		dst[i] = -math.Log(1-r.Float64()) / rate
	}
}

// FillUint64 fills dst with the next len(dst) raw generator outputs, exactly
// the values successive Uint64 calls would return. Bulk injection paths use it
// to draw a whole slot batch's worth of uniform words in one pass — the
// generator state lives in registers for the duration of the loop instead of
// being reloaded per call — without changing the sample path.
func (r *Rand) FillUint64(dst []uint64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		dst[i] = bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// FillPoisson fills dst with independent Poisson draws of the given mean,
// exactly the values len(dst) successive Poisson calls would return. The bulk
// form hoists the mean-dependent set-up (exp(-mean) for the Knuth sampler,
// the PTRS constants for large means) out of the per-draw loop, which is
// where most of the scalar sampler's time goes for small means.
func (r *Rand) FillPoisson(dst []int, mean float64) {
	switch {
	case mean <= 0:
		for i := range dst {
			dst[i] = 0
		}
	case mean < 30:
		limit := math.Exp(-mean)
		for i := range dst {
			dst[i] = r.poissonKnuth(limit)
		}
	default:
		p := newPTRSParams(mean)
		for i := range dst {
			dst[i] = r.poissonPTRS(&p)
		}
	}
}

// poissonKnuth draws one Poisson variate given limit = exp(-mean).
func (r *Rand) poissonKnuth(limit float64) int {
	k := 0
	prod := r.Float64()
	for prod > limit {
		k++
		prod *= r.Float64()
	}
	return k
}

// ptrsParams holds the mean-dependent constants of the PTRS sampler so that
// bulk generation computes them once per batch.
type ptrsParams struct {
	mean, b, a, invAlpha, vr float64
}

func newPTRSParams(mean float64) ptrsParams {
	b := 0.931 + 2.53*math.Sqrt(mean)
	return ptrsParams{
		mean:     mean,
		b:        b,
		a:        -0.059 + 0.02483*b,
		invAlpha: 1.1239 + 1.1328/(b-3.4),
		vr:       0.9277 - 3.6224/(b-2),
	}
}

// poissonPTRS implements Hörmann's PTRS algorithm for Poisson generation
// with mean >= 10 (we use it for mean >= 30).
func (r *Rand) poissonPTRS(p *ptrsParams) int {
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*p.a/us+p.b)*u + p.mean + 0.43)
		if us >= 0.07 && v <= p.vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		if math.Log(v)+math.Log(p.invAlpha)-math.Log(p.a/(us*us)+p.b) <=
			k*math.Log(p.mean)-p.mean-logGamma(k+1) {
			return int(k)
		}
	}
}

// logGamma returns log Γ(x) via the Lanczos approximation (sufficient
// accuracy for the rejection test above).
func logGamma(x float64) float64 {
	lg, _ := math.Lgamma(x)
	return lg
}

// Perm returns a uniformly random permutation of {0, ..., n-1}.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the provided swap
// function (Fisher–Yates).
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
