// Package static implements the static routing tasks of §1.2: a single
// permutation (every node sends one packet, destinations form a permutation)
// routed either greedily along canonical dimension-order paths or with the
// Valiant–Brebner two-phase randomized algorithm [VaB81, Val82]. The paper's
// §2.3 baselines pipeline instances of these static algorithms; this package
// measures the building block itself — the completion time (makespan) of one
// instance — whose concentration around R·d with R a small constant is the
// property the batch schemes rely on.
//
// The package also provides a batch-of-permutations task (route k
// permutations back to back with a barrier between them), the structure used
// by the pipelined baselines, so their round length can be studied in
// isolation from the dynamic arrival process.
package static

import (
	"fmt"

	"repro/internal/hypercube"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

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

// injectAll is the des.Handler that injects the whole permutation: the
// network calendar fires it once, at time zero.
type injectAll func()

// HandleEvent runs the injection.
func (f injectAll) HandleEvent(_, _ int32) { f() }

// RoutePermutation routes one packet from every node x to perm[x] and returns
// the completion-time statistics. perm must have length 2^d.
func RoutePermutation(d int, perm []hypercube.Node, scheme Scheme, seed uint64) (*PermutationResult, error) {
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

	sys := network.NewSystem(network.Config{
		NumArcs:   cube.NumArcs(),
		NumGroups: d,
		Seed:      seed,
	})
	rng := xrand.NewStream(seed, 0x57A71C)
	var greedyRouter routing.HypercubeRouter = routing.DimensionOrder{}
	var valiantRouter routing.HypercubeRouter = routing.ValiantTwoPhase{}

	res := &PermutationResult{}
	var delays stats.Tally
	sys.OnDeliver = func(p *network.Packet, now float64) {
		delays.Add(now)
	}
	maxQueue := 0
	trackMax := func() {
		for a := 0; a < cube.NumArcs(); a++ {
			if q := sys.QueueLength(a); q > maxQueue {
				maxQueue = q
			}
		}
	}

	inject := injectAll(func() {
		for x := 0; x < cube.Nodes(); x++ {
			origin := hypercube.Node(x)
			dest := perm[x]
			var path []int
			switch scheme {
			case Greedy:
				path = routing.Path(greedyRouter, cube, origin, dest, rng)
			case Valiant:
				path = routing.Path(valiantRouter, cube, origin, dest, rng)
			default:
				panic(fmt.Sprintf("static: unknown scheme %d", int(scheme)))
			}
			res.TotalHops += int64(len(path))
			res.Packets++
			sys.Inject(&network.Packet{
				ID:     sys.NewPacketID(),
				Origin: x,
				Dest:   int(dest),
				Path:   path,
			})
		}
		trackMax()
	})
	sys.Sim.ScheduleEventAt(0, sys.Sim.RegisterHandler(inject), 0, 0)
	sys.Sim.Run()
	res.Makespan = sys.Sim.Now()
	res.MeanDelay = delays.Mean()
	res.MaxQueueLength = maxQueue
	return res, nil
}

// RouteRandomPermutation draws a uniformly random permutation and routes it.
func RouteRandomPermutation(d int, scheme Scheme, seed uint64) (*PermutationResult, error) {
	rng := xrand.NewStream(seed, 0x9E12)
	perm := workload.Permutation(d, rng)
	return RoutePermutation(d, perm, scheme, seed)
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

// BatchResult reports routing k permutations back to back with a barrier.
type BatchResult struct {
	// Rounds is the number of permutations routed.
	Rounds int
	// TotalTime is the sum of the per-round makespans (the barrier model of
	// §2.3 — a new round starts only when the previous one has drained).
	TotalTime float64
	// MeanRound is TotalTime / Rounds, the effective service time of the
	// per-node M/G/1 queue in the pipelined baseline.
	MeanRound float64
}

// RouteBatch routes `rounds` independent random permutations sequentially
// with a barrier after each, as the §2.3 pipelined baseline does.
func RouteBatch(d int, scheme Scheme, rounds int, seed uint64) (*BatchResult, error) {
	if rounds <= 0 {
		return nil, fmt.Errorf("static: rounds must be positive, got %d", rounds)
	}
	out := &BatchResult{Rounds: rounds}
	for i := 0; i < rounds; i++ {
		r, err := RouteRandomPermutation(d, scheme, seed+uint64(i)*7919)
		if err != nil {
			return nil, err
		}
		out.TotalTime += r.Makespan
	}
	out.MeanRound = out.TotalTime / float64(rounds)
	return out, nil
}
