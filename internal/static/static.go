// Package static implements the static routing tasks of §1.2: a single
// permutation (every node sends one packet, destinations form a permutation)
// routed either greedily along canonical dimension-order paths or with the
// Valiant–Brebner two-phase randomized algorithm [VaB81, Val82]. The paper's
// §2.3 baselines pipeline instances of these static algorithms; this package
// measures the building block itself — the completion time (makespan) of one
// instance — whose concentration around R·d with R a small constant is the
// property the batch schemes rely on.
//
// The package also implements the non-greedy pipelined batch scheme of §2.3
// (successive instances of the Valiant–Brebner first phase, one packet per
// node per round, with a barrier between rounds), which the paper uses to
// motivate greedy routing: the batch scheme is only stable for loads of order
// 1/d. Permutations and rounds are synchronous batches, which run on the slot
// kernel (slotsim.Kernel.Batch): a pipelined run reuses one kernel across its
// rounds, and permutations reuse pooled kernels.
package static

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/hypercube"
	"repro/internal/routing"
	"repro/internal/slotsim"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// batchFunc runs one synchronous batch: a kernel's Batch, or in tests one
// that also checks it against the reference simulator.
type batchFunc func(numArcs int, routes [][]int) []slotsim.Delivery

// kernels holds the slot kernels that permutations reuse.
var kernels = sync.Pool{New: func() any { return new(slotsim.Kernel) }}

// permStream is the stream a random permutation is drawn from.
const permStream = 0x9E12

// Scheme selects the static routing algorithm.
type Scheme int

const (
	// Greedy routes every packet along its canonical dimension-order path.
	Greedy Scheme = iota
	// Valiant routes every packet through a uniformly random intermediate
	// node, both phases along canonical paths, with the second phase started
	// immediately when a packet finishes its first phase (no global barrier).
	Valiant
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case Greedy:
		return "greedy"
	case Valiant:
		return "valiant"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// PermutationResult reports the routing of one permutation.
type PermutationResult struct {
	// Makespan is the time at which the last packet reached its destination.
	Makespan float64
	// MeanDelay is the mean per-packet delivery time.
	MeanDelay float64
	// MaxQueueLength is the largest arc queue observed (including the packet
	// in service).
	MaxQueueLength int
	// TotalHops is the total number of arc traversals.
	TotalHops int64
	// Packets is the number of packets routed (2^d minus fixed points for a
	// permutation with fixed points, which travel zero hops).
	Packets int64
}

// RoutePermutation routes one packet from every node x to perm[x] and returns
// the completion-time statistics. perm must have length 2^d.
func RoutePermutation(d int, perm []hypercube.Node, scheme Scheme, seed uint64) (*PermutationResult, error) {
	k := kernels.Get().(*slotsim.Kernel)
	defer kernels.Put(k)
	return routePermutation(k.Batch, d, perm, scheme, seed)
}

func routePermutation(batch batchFunc, d int, perm []hypercube.Node, scheme Scheme, seed uint64) (*PermutationResult, error) {
	if d < 1 || d > hypercube.MaxDimension {
		return nil, fmt.Errorf("static: dimension %d out of range [1,%d]", d, hypercube.MaxDimension)
	}
	cube := hypercube.New(d)
	if len(perm) != cube.Nodes() {
		return nil, fmt.Errorf("static: permutation has %d entries, want %d", len(perm), cube.Nodes())
	}
	seen := make([]bool, cube.Nodes())
	for _, z := range perm {
		if !cube.Contains(z) {
			return nil, fmt.Errorf("static: destination %d outside the %d-cube", z, d)
		}
		if seen[z] {
			return nil, fmt.Errorf("static: destination %d repeated; not a permutation", z)
		}
		seen[z] = true
	}

	rng := xrand.NewStream(seed, 0x57A71C)
	var router routing.HypercubeRouter
	switch scheme {
	case Greedy:
		router = routing.DimensionOrder{}
	case Valiant:
		router = routing.ValiantTwoPhase{}
	default:
		panic(fmt.Sprintf("static: unknown scheme %d", int(scheme)))
	}

	res := &PermutationResult{}
	routes := make([][]int, cube.Nodes())
	firstArc := make([]int, cube.NumArcs())
	var slab []int // every route, back to back
	for x := range routes {
		start := len(slab)
		slab = router.AppendPath(slab, cube, hypercube.Node(x), perm[x], rng)
		routes[x] = slab[start:len(slab):len(slab)]
		res.TotalHops += int64(len(routes[x]))
		res.Packets++
		// Every packet starts at time zero, so an arc's longest queue is the
		// one it starts with: every packet whose route begins there.
		if len(routes[x]) > 0 {
			firstArc[routes[x][0]]++
		}
	}
	var delays stats.Tally
	deliveries := batch(cube.NumArcs(), routes)
	for _, d := range deliveries {
		delays.Add(d.Time)
	}
	res.Makespan = deliveries[len(deliveries)-1].Time
	res.MeanDelay = delays.Mean()
	res.MaxQueueLength = slices.Max(firstArc)
	return res, nil
}

// RouteRandomPermutation draws a uniformly random permutation and routes it.
func RouteRandomPermutation(d int, scheme Scheme, seed uint64) (*PermutationResult, error) {
	return RoutePermutation(d, workload.Permutation(d, xrand.NewStream(seed, permStream)), scheme, seed)
}

// TrialSummary aggregates repeated random-permutation trials.
type TrialSummary struct {
	// Trials is the number of permutations routed.
	Trials int
	// MeanMakespan, MaxMakespan and MakespanStdDev summarise the completion
	// time distribution.
	MeanMakespan   float64
	MaxMakespan    float64
	MakespanStdDev float64
	// MeanDelay is the grand mean per-packet delivery time.
	MeanDelay float64
	// FractionWithin reports, for each multiplier in Multipliers, the
	// fraction of trials whose makespan was at most multiplier*d — the
	// "completes in Rd time with high probability" statement of [VaB81].
	Multipliers    []float64
	FractionWithin []float64
}

// RunTrials routes `trials` independent random permutations and summarises
// the makespan distribution. multipliers lists the R values for which the
// fraction of trials finishing within R*d is reported.
func RunTrials(d int, scheme Scheme, trials int, multipliers []float64, seed uint64) (*TrialSummary, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("static: trials must be positive, got %d", trials)
	}
	var makespan, delay stats.Tally
	within := make([]int, len(multipliers))
	for i := 0; i < trials; i++ {
		r, err := RouteRandomPermutation(d, scheme, seed+uint64(i))
		if err != nil {
			return nil, err
		}
		makespan.Add(r.Makespan)
		delay.Add(r.MeanDelay)
		for m, mult := range multipliers {
			if r.Makespan <= mult*float64(d) {
				within[m]++
			}
		}
	}
	sum := &TrialSummary{
		Trials:         trials,
		MeanMakespan:   makespan.Mean(),
		MaxMakespan:    makespan.Max(),
		MakespanStdDev: makespan.StdDev(),
		MeanDelay:      delay.Mean(),
		Multipliers:    append([]float64(nil), multipliers...),
		FractionWithin: make([]float64, len(multipliers)),
	}
	for m := range multipliers {
		sum.FractionWithin[m] = float64(within[m]) / float64(trials)
	}
	return sum, nil
}

// PipelinedConfig parameterises the non-greedy batch scheme of §2.3.
type PipelinedConfig struct {
	// D is the hypercube dimension.
	D int
	// Lambda is each node's Poisson packet-generation rate.
	Lambda float64
	// P is the destination bit-flip probability.
	P float64
	// Horizon is the simulated time span.
	Horizon float64
	// WarmupFraction of the horizon is discarded before measuring
	// (default 0.1 when zero).
	WarmupFraction float64
	// Seed drives all randomness.
	Seed uint64
}

// PipelinedResult reports the behaviour of the batch scheme.
type PipelinedResult struct {
	// MeanDelay is the mean time from generation to delivery for packets
	// generated in the measurement window and delivered before the horizon.
	MeanDelay float64
	// Delivered counts those packets.
	Delivered int64
	// Generated counts packets generated in the measurement window.
	Generated int64
	// Rounds is the number of batch rounds executed.
	Rounds int
	// MeanRoundLength is the average duration of a round (the paper's "Rd").
	MeanRoundLength float64
	// FinalBacklog is the number of packets still waiting at their origins
	// (not yet selected into any round) at the horizon.
	FinalBacklog int64
	// BacklogSlope is the least-squares slope of origin backlog versus time;
	// a clearly positive slope signals instability.
	BacklogSlope float64
}

// RunPipelined simulates the §2.3 baseline: packets accumulate at their
// origin nodes; at the start of every round each node selects at most one
// waiting packet; the selected packets are routed greedily (canonical paths)
// and the next round starts only when all of them have been delivered (a
// barrier, ignoring termination-detection overhead, as the paper does). The
// per-node queue therefore behaves like an M/G/1 queue whose service time is
// the round length, and the scheme is unstable once lambda times the round
// length exceeds one.
func RunPipelined(cfg PipelinedConfig) PipelinedResult {
	return runPipelined(cfg, new(slotsim.Kernel).Batch)
}

func runPipelined(cfg PipelinedConfig, batch batchFunc) PipelinedResult {
	if cfg.D < 1 {
		panic(fmt.Sprintf("static: pipelined scheme requires d >= 1, got %d", cfg.D))
	}
	if cfg.Horizon <= 0 {
		panic("static: pipelined scheme requires a positive horizon")
	}
	warmup := cfg.WarmupFraction
	if warmup <= 0 {
		warmup = 0.1
	}
	measureFrom := cfg.Horizon * warmup

	cube := hypercube.New(cfg.D)
	n := cube.Nodes()
	dist := workload.NewBitFlip(cfg.D, cfg.P)
	router := routing.DimensionOrder{}

	// Pre-generate each node's arrival times and destinations up to the
	// horizon; the batch structure makes on-line generation awkward and
	// the totals are modest.
	type pending struct {
		genTime float64
		dest    hypercube.Node
	}
	queues := make([][]pending, n)
	for x := 0; x < n; x++ {
		src := workload.NewPoissonSource(cfg.Lambda, cfg.Seed, uint64(x))
		for {
			t := src.NextArrival()
			if t > cfg.Horizon {
				break
			}
			src.Advance()
			queues[x] = append(queues[x], pending{genTime: t, dest: dist.Sample(hypercube.Node(x), src.RNG())})
		}
	}
	heads := make([]int, n)

	routeRNG := xrand.NewStream(cfg.Seed, 1<<32)
	var result PipelinedResult
	var delaySum float64
	now := 0.0
	var backlogTrace []float64
	var backlogTimes []float64
	for now < cfg.Horizon {
		// Each round routes its packets through an empty network (rounds do
		// not overlap), which keeps the barrier semantics explicit.
		var routes [][]int
		var gens []float64
		for x := 0; x < n; x++ {
			if heads[x] >= len(queues[x]) || queues[x][heads[x]].genTime > now {
				continue
			}
			pkt := queues[x][heads[x]]
			heads[x]++
			routes = append(routes, routing.Path(router, cube, hypercube.Node(x), pkt.dest, routeRNG))
			gens = append(gens, pkt.genTime)
		}
		injected := len(routes)
		roundLength := 0.0
		if injected > 0 {
			deliveries := batch(cube.NumArcs(), routes)
			for _, d := range deliveries {
				deliveredAt := now + d.Time
				if gen := gens[d.Packet]; gen >= measureFrom && deliveredAt <= cfg.Horizon {
					result.Delivered++
					delaySum += deliveredAt - gen
				}
			}
			roundLength = deliveries[len(deliveries)-1].Time
		}
		if injected == 0 {
			// Nothing to send: advance to the next arrival (or the horizon).
			next := cfg.Horizon
			for x := 0; x < n; x++ {
				if heads[x] < len(queues[x]) && queues[x][heads[x]].genTime < next {
					next = queues[x][heads[x]].genTime
				}
			}
			now = next
			continue
		}
		result.Rounds++
		result.MeanRoundLength += roundLength
		now += roundLength

		// Record the origin backlog after this round for the stability
		// diagnostic.
		var waiting int64
		for x := 0; x < n; x++ {
			for i := heads[x]; i < len(queues[x]); i++ {
				if queues[x][i].genTime <= now {
					waiting++
				}
			}
		}
		if now >= measureFrom {
			backlogTrace = append(backlogTrace, float64(waiting))
			backlogTimes = append(backlogTimes, now)
		}
	}

	for x := 0; x < n; x++ {
		for i := heads[x]; i < len(queues[x]); i++ {
			if queues[x][i].genTime <= cfg.Horizon {
				result.FinalBacklog++
			}
			if queues[x][i].genTime >= measureFrom {
				result.Generated++
			}
		}
		for i := 0; i < heads[x]; i++ {
			if queues[x][i].genTime >= measureFrom {
				result.Generated++
			}
		}
	}
	if result.Delivered > 0 {
		result.MeanDelay = delaySum / float64(result.Delivered)
	}
	if result.Rounds > 0 {
		result.MeanRoundLength /= float64(result.Rounds)
	}
	var slope stats.Series
	for i := range backlogTrace {
		slope.AddPoint(backlogTimes[i], backlogTrace[i])
	}
	result.BacklogSlope = slope.LinearSlope()
	return result
}
