// Package routing contains the path-selection schemes compared in the paper:
//
//   - DimensionOrder: the greedy scheme analysed in §3 — every packet crosses
//     the hypercube dimensions it needs in increasing index order (canonical
//     paths), with FIFO queueing at the arcs and no idling.
//   - RandomDimensionOrder: an oblivious variant that crosses the required
//     dimensions in a uniformly random order; used as an ablation of the
//     "increasing index order" design choice.
//   - ValiantTwoPhase: Valiant–Brebner randomized routing (§1.2, [VaB81]):
//     phase 1 sends the packet greedily to a uniformly random intermediate
//     node, phase 2 greedily from there to the true destination.
//   - ButterflyRouter: the unique butterfly path of §4.1 expressed as arc
//     indices.
//
// The package also implements the non-greedy pipelined batch scheme of §2.3
// (successive instances of the Valiant–Brebner first phase, one packet per
// node per round, with a barrier between rounds), which the paper uses to
// motivate greedy routing: the batch scheme is only stable for loads of order
// 1/d.
package routing

import (
	"fmt"
	"math/bits"

	"repro/internal/butterfly"
	"repro/internal/hypercube"
	"repro/internal/network"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// HypercubeRouter converts an origin/destination pair into a path, expressed
// as the dense arc indices understood by the network simulator.
type HypercubeRouter interface {
	// AppendPath appends the arc-index path from origin to dest to dst and
	// returns the extended slice. Randomized routers draw from rng;
	// deterministic routers ignore it. Sources that recycle packets call
	// this with the packet's truncated Path so steady-state routing does
	// not allocate.
	AppendPath(dst []int, c *hypercube.Cube, origin, dest hypercube.Node, rng *xrand.Rand) []int
	// Name identifies the scheme in reports.
	Name() string
}

// Path returns the arc-index path from origin to dest in a fresh slice; it is
// the convenience form of r.AppendPath for cold paths.
func Path(r HypercubeRouter, c *hypercube.Cube, origin, dest hypercube.Node, rng *xrand.Rand) []int {
	return r.AppendPath(nil, c, origin, dest, rng)
}

// DimensionOrder is the paper's greedy scheme: canonical increasing
// dimension-order paths.
type DimensionOrder struct{}

// AppendPath appends the canonical path as arc indices, walking the
// differing dimensions in increasing order without materialising arcs.
func (DimensionOrder) AppendPath(dst []int, c *hypercube.Cube, origin, dest hypercube.Node, _ *xrand.Rand) []int {
	diff := uint32(origin ^ dest)
	cur := origin
	for diff != 0 {
		bit := diff & -diff
		m := hypercube.Dimension(bits.TrailingZeros32(diff) + 1)
		dst = append(dst, c.ArcIndexFrom(cur, m))
		cur ^= hypercube.Node(bit)
		diff &= diff - 1
	}
	return dst
}

// Name identifies the scheme.
func (DimensionOrder) Name() string { return "greedy-dimension-order" }

// RandomDimensionOrder crosses the required dimensions in a uniformly random
// order; like DimensionOrder it is oblivious and uses shortest paths, but the
// levelled-network structure of §3.1 no longer holds. It is the ablation for
// the "increasing index order" choice.
type RandomDimensionOrder struct{}

// AppendPath appends a shortest path crossing the required dimensions in
// random order.
func (RandomDimensionOrder) AppendPath(dst []int, c *hypercube.Cube, origin, dest hypercube.Node, rng *xrand.Rand) []int {
	dims := c.DiffDimensions(origin, dest)
	if len(dims) > 1 {
		rng.Shuffle(len(dims), func(i, j int) { dims[i], dims[j] = dims[j], dims[i] })
	}
	cur := origin
	for _, m := range dims {
		dst = append(dst, c.ArcIndexFrom(cur, m))
		cur = c.Flip(cur, m)
	}
	return dst
}

// Name identifies the scheme.
func (RandomDimensionOrder) Name() string { return "greedy-random-order" }

// ValiantTwoPhase sends every packet greedily to a uniformly random
// intermediate node and then greedily to its destination. Both phases use
// canonical dimension-order paths, as in [VaB81]. The scheme doubles the
// expected traffic per arc, so on the dynamic problem it is stable only for
// roughly half the load of plain greedy routing; the concluding remarks of
// the paper discuss exactly this trade-off.
type ValiantTwoPhase struct{}

// AppendPath appends the concatenation of the two greedy phases.
func (v ValiantTwoPhase) AppendPath(dst []int, c *hypercube.Cube, origin, dest hypercube.Node, rng *xrand.Rand) []int {
	inter := hypercube.Node(rng.Intn(c.Nodes()))
	dst = DimensionOrder{}.AppendPath(dst, c, origin, inter, nil)
	return DimensionOrder{}.AppendPath(dst, c, inter, dest, nil)
}

// Name identifies the scheme.
func (ValiantTwoPhase) Name() string { return "valiant-two-phase" }

// AppendButterflyPath appends the unique butterfly path from origin row to
// destination row as dense arc indices.
func AppendButterflyPath(dst []int, b *butterfly.Butterfly, origin, dest butterfly.Row) []int {
	cur := origin
	for j := 1; j <= b.Dimension(); j++ {
		bit := butterfly.Row(1) << uint(j-1)
		kind := butterfly.Straight
		if (cur^dest)&bit != 0 {
			kind = butterfly.Vertical
		}
		dst = append(dst, b.ArcIndex(butterfly.Arc{Row: cur, Level: butterfly.Level(j), Kind: kind}))
		if kind == butterfly.Vertical {
			cur ^= bit
		}
	}
	return dst
}

// ButterflyPath returns the unique butterfly path from origin row to
// destination row as dense arc indices in a fresh slice.
func ButterflyPath(b *butterfly.Butterfly, origin, dest butterfly.Row) []int {
	return AppendButterflyPath(nil, b, origin, dest)
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

// roundStart is the des.Handler that injects one round's packets: each
// round's network calendar fires it once, at time zero.
type roundStart func()

// HandleEvent runs the round's injection.
func (f roundStart) HandleEvent(_, _ int32) { f() }

// RunPipelined simulates the §2.3 baseline: packets accumulate at their
// origin nodes; at the start of every round each node selects at most one
// waiting packet; the selected packets are routed greedily (canonical paths)
// and the next round starts only when all of them have been delivered (a
// barrier, ignoring termination-detection overhead, as the paper does). The
// per-node queue therefore behaves like an M/G/1 queue whose service time is
// the round length, and the scheme is unstable once lambda times the round
// length exceeds one.
func RunPipelined(cfg PipelinedConfig) PipelinedResult {
	if cfg.D < 1 {
		panic(fmt.Sprintf("routing: pipelined scheme requires d >= 1, got %d", cfg.D))
	}
	if cfg.Horizon <= 0 {
		panic("routing: pipelined scheme requires a positive horizon")
	}
	warmup := cfg.WarmupFraction
	if warmup <= 0 {
		warmup = 0.1
	}
	measureFrom := cfg.Horizon * warmup

	cube := hypercube.New(cfg.D)
	n := cube.Nodes()
	dist := workload.NewBitFlip(cfg.D, cfg.P)
	router := DimensionOrder{}

	// Pre-generate each node's arrival times and destinations up to the
	// horizon; the batch structure makes event-driven generation awkward and
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
		// Build the network for this round only; rounds do not overlap, so a
		// fresh system per round keeps the barrier semantics explicit.
		sys := network.NewSystem(network.Config{
			NumArcs:   cube.NumArcs(),
			NumGroups: cfg.D,
			Seed:      cfg.Seed + uint64(result.Rounds),
		})
		type inFlightInfo struct {
			genTime float64
		}
		info := make(map[int64]inFlightInfo)
		injected := 0
		inject := roundStart(func() {
			for x := 0; x < n; x++ {
				if heads[x] >= len(queues[x]) || queues[x][heads[x]].genTime > now {
					continue
				}
				pkt := queues[x][heads[x]]
				heads[x]++
				id := sys.NewPacketID()
				info[id] = inFlightInfo{genTime: pkt.genTime}
				sys.Inject(&network.Packet{
					ID:     id,
					Origin: x,
					Dest:   int(pkt.dest),
					Path:   Path(router, cube, hypercube.Node(x), pkt.dest, routeRNG),
				})
				injected++
			}
		})
		sys.Sim.ScheduleEventAt(0, sys.Sim.RegisterHandler(inject), 0, 0)
		sys.OnDeliver = func(p *network.Packet, t float64) {
			gen := info[p.ID].genTime
			deliveredAt := now + t
			if gen >= measureFrom && deliveredAt <= cfg.Horizon {
				result.Delivered++
				delaySum += deliveredAt - gen
			}
		}
		sys.Sim.Run()
		roundLength := sys.Sim.Now()
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
