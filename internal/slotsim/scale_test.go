package slotsim

import (
	"fmt"
	"math/bits"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/butterfly"
	"repro/internal/hypercube"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/xrand"
)

// uniformDest samples pairs uniformly over the 2^d identities one at a time:
// the origin pick, then a destination drawn independently of it — the
// bit-flip distribution at p = 1/2, without importing internal/workload's
// wrappers.
type uniformDest struct{ mask uint32 }

func (u uniformDest) SampleDestBatch(rng *xrand.Rand, origins, dests []uint32) {
	for i := range origins {
		origins[i] = uint32(rng.Uint64n(uint64(u.mask) + 1))
		dests[i] = uint32(rng.Uint64()) & u.mask
	}
}

// uniformBatch samples uniform pairs in bulk: one raw word for the origin
// pick, one for the destination's flip mask, drawn via FillUint64 like the
// production samplers in sim.
type uniformBatch struct {
	mask uint32
	raw  []uint64
}

func (u *uniformBatch) SampleDestBatch(rng *xrand.Rand, origins, dests []uint32) {
	if cap(u.raw) < 2*len(origins) {
		u.raw = make([]uint64, 2*len(origins))
	}
	raw := u.raw[:2*len(origins)]
	rng.FillUint64(raw)
	for i := range origins {
		origins[i] = uint32(raw[2*i]) & u.mask
		dests[i] = origins[i] ^ (uint32(raw[2*i+1]) & u.mask)
	}
}

// TestSteppedRoutesMatchPathRecords is the property test for the bit-packed
// route steppers: across every dimension up to the supported maximum and
// random (src, dst) pairs, the arc sequence produced by stepping the packed
// uint64 state must equal the materialised per-arc path records the routing
// package builds — the stepped modes must be a pure storage optimisation.
func TestSteppedRoutesMatchPathRecords(t *testing.T) {
	rng := xrand.NewStream(0xD1CE, 7)
	for d := 2; d <= hypercube.MaxDimension; d++ {
		cube := hypercube.New(d)
		bf := butterfly.New(d)
		n := uint64(1) << uint(d)
		hk := &Kernel{mode: RouteHypercubeGreedy, srcN: 1 << d,
			pUV: make([]uint64, 1), pAux: make([]uint32, 1)}
		bk := &Kernel{mode: RouteButterfly, srcN: 1 << d, bfHops: int32(d),
			pUV: make([]uint64, 1), pAux: make([]uint32, 1)}
		for trial := 0; trial < 64; trial++ {
			src := uint32(rng.Uint64n(n))
			dst := uint32(rng.Uint64n(n))

			want := routing.DimensionOrder{}.AppendPath(nil, cube,
				hypercube.Node(src), hypercube.Node(dst), nil)
			hk.pUV[0] = uint64(src)<<32 | uint64(src^dst)
			hk.pAux[0] = uint32(bits.OnesCount32(src ^ dst))
			var got []int
			for uint32(hk.pUV[0]) != 0 {
				got = append(got, hk.nextArc(0))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("d=%d greedy %d->%d: stepped arcs %v, path records %v", d, src, dst, got, want)
			}

			wantBf := routing.AppendButterflyPath(nil, bf, butterfly.Row(src), butterfly.Row(dst))
			bk.pUV[0] = uint64(src)<<32 | uint64(dst)
			got = got[:0]
			for hop := 0; hop < d; hop++ {
				bk.pAux[0] = uint32(hop)<<16 | uint32(d)
				got = append(got, bk.nextArc(0))
			}
			if !slices.Equal(got, wantBf) {
				t.Fatalf("d=%d butterfly %d->%d: stepped arcs %v, path records %v", d, src, dst, got, wantBf)
			}
		}
	}
}

// millionNodeConfig is the 2^20-node slotted hypercube the tentpole targets:
// stepped greedy routing, bulk injection, per-dimension stats off, and an
// explicit memory budget. Lambda is kept low so the test exercises the
// million-arc arrays rather than a long transient.
func millionNodeConfig() Config {
	const d = 20
	return Config{
		NumArcs:     d * (1 << d),
		NumGroups:   1,
		Sources:     1 << d,
		Horizon:     6,
		Warmup:      2,
		Seed:        99,
		Lambda:      0.05,
		Slotted:     true,
		Tau:         1,
		Mode:        RouteHypercubeGreedy,
		Batch:       &uniformBatch{mask: 1<<d - 1},
		Measurement: network.Measurement{SkipGroupPopulation: true},
		MaxBytes:    2 << 30,
	}
}

// TestMillionNodeSteadyStateZeroAllocs pins the scale contract: a warm
// 2^20-node replication — reset included — performs zero allocations, within
// the configured 2 GiB budget. Skipped in -short runs and under the race
// detector, where the 21M-arc arrays are disproportionate for a unit test.
func TestMillionNodeSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("million-node arrays are disproportionate under the race detector")
	}
	if testing.Short() {
		t.Skip("allocates ~800 MB of kernel arrays")
	}
	cfg := millionNodeConfig()
	k := &Kernel{}
	m := k.Run(cfg)
	if m.Generated == 0 || m.Delivered == 0 {
		t.Fatalf("no traffic simulated at d=20: %+v", m)
	}
	k.Run(cfg)
	drive := testing.AllocsPerRun(1, func() {
		k.reset(cfg)
		k.runSlotted()
	})
	if drive != 0 {
		t.Errorf("steady-state 2^20-node replication allocates %v, want 0", drive)
	}
}

// TestMaxBytesPreRunRejection checks that reset refuses a configuration whose
// pre-run estimate exceeds the budget, before any array grows.
func TestMaxBytesPreRunRejection(t *testing.T) {
	cfg := slottedConfig()
	cfg.MaxBytes = 64
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "MaxBytes") {
			t.Fatalf("want a MaxBytes panic, got %v", r)
		}
	}()
	(&Kernel{}).Run(cfg)
}

// TestMaxBytesGrowthRejection checks the run-time half of the budget: a
// configuration that fits at reset but whose in-flight population outgrows
// the budget must fail loudly at the growth site, not OOM.
func TestMaxBytesGrowthRejection(t *testing.T) {
	const d = 10
	cfg := Config{
		NumArcs:     d * (1 << d),
		NumGroups:   1,
		Sources:     1 << d,
		Horizon:     50,
		Warmup:      10,
		Seed:        3,
		Lambda:      8, // wildly unstable: in-flight grows past the initial pool
		Slotted:     true,
		Tau:         1,
		Mode:        RouteHypercubeGreedy,
		Batch:       uniformDest{mask: 1<<d - 1},
		Measurement: network.Measurement{SkipGroupPopulation: true},
	}
	cfg.MaxBytes = EstimateBytes(cfg) + 1024
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "memory budget exceeded") {
			t.Fatalf("want a growth-time budget panic, got %v", r)
		}
	}()
	(&Kernel{}).Run(cfg)
}

// TestReusedKernelMeetsFreshBudget pins "a pooled kernel is a fresh one":
// after any earlier run, a kernel meets the MaxBytes budget a fresh one meets
// on the same configuration — its final footprint — with the fresh kernel's
// metrics, and ends at that footprint. Each earlier run leaves state the next
// run must not be charged for: per-hop wait times, or a packet pool,
// completion ring or route slab grown past what the next run needs.
func TestReusedKernelMeetsFreshBudget(t *testing.T) {
	cube := func(d int, lambda float64) Config {
		return Config{
			NumArcs:   d << d,
			NumGroups: d,
			Sources:   1 << d,
			Horizon:   60,
			Warmup:    10,
			Seed:      17,
			Lambda:    lambda,
			Mode:      RouteHypercubeGreedy,
			Batch:     uniformDest{mask: 1<<d - 1},
		}
	}
	slotted := func(cfg Config) Config {
		cfg.Slotted, cfg.Tau = true, 1
		return cfg
	}
	waits := cube(4, 3) // overloaded: the pool, and its wait times, grow
	waits.TrackPerHopWait = true
	for _, tc := range []struct {
		name          string
		before, after Config
	}{
		{"wait times, then a 10-cube", waits, cube(10, 1)},
		{"overloaded 4-cube, then a slotted 6-cube", cube(4, 1), slotted(cube(6, 0.5))},
		{"ring of an overloaded 4-cube, then a 6-cube", cube(4, 6), cube(6, 0.8)},
		{"pool of an overloaded 6-cube, then a light one", cube(6, 4), cube(6, 0.3)},
		{"overloaded 6-cube, then stored routes", cube(6, 4), slottedConfig()},
		{"stored routes, then a slotted 5-cube", slottedConfig(), slotted(cube(5, 0.9))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.after
			fresh := &Kernel{}
			want := fresh.Run(cfg)
			cfg.MaxBytes = fresh.memFootprint()

			k := &Kernel{}
			k.Run(tc.before)
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("reused kernel fails the %d B a fresh kernel meets: %v", cfg.MaxBytes, r)
				}
			}()
			if got := k.Run(cfg); !reflect.DeepEqual(got, want) {
				t.Fatalf("reused kernel diverges from fresh kernel:\n%+v\nvs\n%+v", got, want)
			}
			if foot := k.memFootprint(); foot != cfg.MaxBytes {
				t.Errorf("reused kernel ends at %d B, fresh kernel at %d B", foot, cfg.MaxBytes)
			}
		})
	}
}

// TestRecordAndSlabSizes pins the per-element sizes the memory budget
// charges to the storage that really holds them: a completion record is
// compBytes, and straight after growPool the pool's part of memFootprint is
// its capacity times Config.pktSize. A field added to the ring record or the
// packet slab then fails here instead of growing memory unpriced.
func TestRecordAndSlabSizes(t *testing.T) {
	if got := unsafe.Sizeof(completion{}); got != compBytes {
		t.Errorf("completion record is %d B, compBytes is %d", got, compBytes)
	}
	waits := continuousGreedyConfig()
	waits.TrackPerHopWait = true
	for _, tc := range []struct {
		name   string
		cfg    Config
		perPkt int64
	}{
		{"stepped", continuousGreedyConfig(), 24},
		{"stored routes", slottedConfig(), 28},
		{"per-hop waits", waits, 32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := &Kernel{}
			k.reset(tc.cfg)
			k.growPool(3 * poolChunk)
			if got := k.cfg.pktSize(); got != tc.perPkt {
				t.Fatalf("pktSize %d B, want %d B", got, tc.perPkt)
			}
			if got, want := k.poolFootprint(), int64(len(k.pGen))*tc.perPkt; got != want {
				t.Fatalf("pool of %d slots takes %d B, want %d B", len(k.pGen), got, want)
			}
		})
	}
}

// TestColdRunAllocations pins the cold-start cost of one slotted d = 14 run
// at the benchmark's load (τ = 1, ρ = 0.7) on a fresh Kernel: everything it
// allocates stays within 1.25× the kernel's final footprint. Each tick
// samples its batch through one fixed block, so no batch-sized scratch adds
// to the arrays the run keeps, and grows the packet pool and completion ring
// in one step to the size their doubling would reach. The horizon spans two
// ticks and both grow the pool and ring, so the first tick's pool and ring,
// each about half its final size, are what the run allocates beyond its
// footprint. The bound therefore holds only while the final pool plus ring
// (64Ki slots each here: 1.5 MiB + 1 MiB) stay within the arc arrays
// (2.6 MiB at 12 B/arc). Measured ratios: 1.221 with 16 B arcs and 28 B
// packets, 1.257 (over) with 12 B arcs and 28 B packets, 1.245 with 12 B
// arcs and 24 B packets. Across more ticks of a still-filling network each
// tick grows the pool again, and those geometric copies are outside this
// bound.
func TestColdRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	const d = 14
	sampler := &uniformBatch{mask: 1<<d - 1}
	cfg := Config{
		NumArcs:     d << d,
		NumGroups:   d,
		Sources:     1 << d,
		Horizon:     1,
		Seed:        5,
		Lambda:      1.4,
		Slotted:     true,
		Tau:         1,
		Mode:        RouteHypercubeGreedy,
		Batch:       sampler,
		Measurement: network.Measurement{SkipGroupPopulation: true},
	}
	k := &Kernel{}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := k.Run(cfg)
	runtime.ReadMemStats(&after)
	if m.Generated < 2*prefetchPairs {
		t.Fatalf("only %d packets: the batch never spans several sampling blocks", m.Generated)
	}
	alloc, foot := after.TotalAlloc-before.TotalAlloc, k.memFootprint()
	t.Logf("cold run allocated %d B; final footprint %d B", alloc, foot)
	if float64(alloc) > 1.25*float64(foot) {
		t.Errorf("cold run allocated %d B, over 1.25x the final footprint of %d B", alloc, foot)
	}
	if cap(k.batchOrigins) > prefetchPairs || cap(sampler.raw) > 2*prefetchPairs {
		t.Errorf("sampling scratch grew to %d pairs (sampler: %d words), want one block of %d",
			cap(k.batchOrigins), cap(sampler.raw), prefetchPairs)
	}
}

// TestBlockGroups pins the statistics-group layout: one group takes any arc
// count; more groups must be power-of-two blocks that divide the arcs.
func TestBlockGroups(t *testing.T) {
	for _, tc := range []struct {
		arcs, groups int
		ok           bool
	}{
		{30, 1, true},  // a single group covers a non-power-of-two arc count
		{30, 0, true},  // as does the zero value
		{40, 5, true},  // five blocks of 8
		{32, 32, true}, // blocks of one arc
		{24, 4, false}, // blocks of 6
		{33, 4, false}, // blocks of 8 that leave one arc over
		{4, 8, false},  // more groups than arcs
	} {
		name := fmt.Sprintf("%d arcs in %d groups", tc.arcs, tc.groups)
		t.Run(name, func(t *testing.T) {
			cfg := slottedConfig()
			cfg.NumArcs, cfg.NumGroups = tc.arcs, tc.groups
			routeChain(&cfg, chainTraffic{sources: cfg.Sources, numArcs: tc.arcs, hops: 4})
			defer func() {
				r := recover()
				switch {
				case tc.ok && r != nil:
					t.Fatalf("unexpected panic: %v", r)
				case !tc.ok && r == nil:
					t.Fatal("want a panic for the group shape")
				case !tc.ok:
					msg := fmt.Sprint(r)
					if !strings.Contains(msg, fmt.Sprintf("NumArcs=%d", tc.arcs)) ||
						!strings.Contains(msg, fmt.Sprintf("NumGroups=%d", tc.groups)) {
						t.Fatalf("panic %q does not name the arc and group counts", msg)
					}
				}
			}()
			m := (&Kernel{}).Run(cfg)
			if m.Delivered == 0 {
				t.Fatalf("no traffic simulated: %+v", m)
			}
			if want := max(tc.groups, 1); len(m.GroupArrivalRate) != want {
				t.Fatalf("%d groups reported, want %d", len(m.GroupArrivalRate), want)
			}
		})
	}
}

// BenchmarkSlottedHypercubeScale runs the slotted 16-cube point of the
// end-to-end slot-scale workload (2^20 arcs, τ = 1, horizon 4, ρ = 0.7) on a
// fresh kernel per run (cold) and on one reused kernel (warm), reporting the
// kernel's time and bytes per injected packet: heap bytes allocated
// (B/packet) and, apart, bytes committed to OS-backed arrays
// (committed-B/packet), which the heap statistics do not see. Before each
// cold run, outside the timer, the heap is returned to the OS, so the run
// faults its pages in afresh as a new process would; where getrusage
// reports minor faults, cold runs also report them per 4 KiB-page of the
// kernel's footprint (faults/page: 1 when every page faults exactly once,
// far less when huge pages back the arrays).
func BenchmarkSlottedHypercubeScale(b *testing.B) {
	cfg := slotScaleConfig(16)
	packets := (&Kernel{}).Run(cfg).Generated // Warmup 0: every injected packet
	for _, cold := range []bool{true, false} {
		name := "warm"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			k := &Kernel{}
			k.Run(cfg)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, faultsOK := minorFaults()
			var faults, committed int64
			b.ResetTimer()
			for range b.N {
				if cold {
					b.StopTimer()
					k = &Kernel{}
					debug.FreeOSMemory()
					b.StartTimer()
				}
				f0, _ := minorFaults()
				c0 := committedBytes(k)
				k.Run(cfg)
				f1, _ := minorFaults()
				faults += f1 - f0
				committed += committedBytes(k) - c0
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(int64(b.N) * packets)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/packet")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/packet")
			b.ReportMetric(float64(committed)/n, "committed-B/packet")
			if cold && faultsOK {
				pages := float64(k.memFootprint()) / float64(os.Getpagesize())
				b.ReportMetric(float64(faults)/(float64(b.N)*pages), "faults/page")
			}
		})
	}
}
