package slotsim

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/butterfly"
	"repro/internal/hypercube"
	"repro/internal/routing"
	"repro/internal/xrand"
)

// uniformDest samples destinations uniformly over the 2^d identities — the
// bit-flip distribution at p = 1/2, without importing internal/workload's
// wrappers.
type uniformDest struct{ mask uint32 }

func (u uniformDest) SampleDest(origin int32, rng *xrand.Rand) uint32 {
	return uint32(rng.Uint64()) & u.mask
}

// uniformBatch is the bulk counterpart of uniformDest: one raw word for the
// origin pick, one for the destination, drawn via FillUint64 like the
// production BatchSampler in sim.
type uniformBatch struct {
	mask uint32
	raw  []uint64
}

// SampleDest is the scalar counterpart the batch must reproduce draw for
// draw: dest = origin XOR one masked word, as sim's bit-flip sampler at p = 1/2.
func (u *uniformBatch) SampleDest(origin int32, rng *xrand.Rand) uint32 {
	return uint32(origin) ^ uint32(rng.Uint64())&u.mask
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
			pUV: make([]uint64, 1), pAux: make([]uint64, 1)}
		bk := &Kernel{mode: RouteButterfly, srcN: 1 << d, bfHops: int32(d),
			pUV: make([]uint64, 1), pAux: make([]uint64, 1)}
		for trial := 0; trial < 64; trial++ {
			src := uint32(rng.Uint64n(n))
			dst := uint32(rng.Uint64n(n))

			want := routing.DimensionOrder{}.AppendPath(nil, cube,
				hypercube.Node(src), hypercube.Node(dst), nil)
			hk.pUV[0] = uint64(src)<<32 | uint64(src^dst)
			hk.pAux[0] = uint64(noSlot)<<32 | uint64(uint16(bits.OnesCount32(src^dst)))
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
				bk.pAux[0] = uint64(noSlot)<<32 | uint64(hop)<<16 | uint64(uint16(d))
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
		NumArcs:             d * (1 << d),
		NumGroups:           1,
		Sources:             1 << d,
		Horizon:             6,
		Warmup:              2,
		Seed:                99,
		Lambda:              0.05,
		Slotted:             true,
		Tau:                 1,
		Mode:                RouteHypercubeGreedy,
		Dest:                uniformDest{mask: 1<<d - 1},
		Batch:               &uniformBatch{mask: 1<<d - 1},
		SkipGroupPopulation: true,
		MaxBytes:            2 << 30,
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
		NumArcs:             d * (1 << d),
		NumGroups:           1,
		Sources:             1 << d,
		Horizon:             50,
		Warmup:              10,
		Seed:                3,
		Lambda:              8, // wildly unstable: in-flight grows past the initial pool
		Slotted:             true,
		Tau:                 1,
		Mode:                RouteHypercubeGreedy,
		Dest:                uniformDest{mask: 1<<d - 1},
		SkipGroupPopulation: true,
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

// TestColdRunAllocations pins the cold-start cost of one slotted d = 14 run
// at the benchmark's load (τ = 1, ρ = 0.7) on a fresh Kernel: everything it
// allocates stays within 1.25× the kernel's final footprint. The tick grows
// the packet pool and completion ring once, straight to their final size,
// and samples its batch through one fixed block, so neither doubling copies
// nor batch-sized scratch add to the arrays the run keeps. The horizon spans
// two ticks: across more ticks of a still-filling network each tick grows
// the pool again, and those geometric copies are outside this bound.
func TestColdRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	const d = 14
	sampler := &uniformBatch{mask: 1<<d - 1}
	cfg := Config{
		NumArcs:             d << d,
		NumGroups:           d,
		Sources:             1 << d,
		Horizon:             1,
		Seed:                5,
		Lambda:              1.4,
		Slotted:             true,
		Tau:                 1,
		Mode:                RouteHypercubeGreedy,
		Dest:                sampler,
		Batch:               sampler,
		SkipGroupPopulation: true,
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
			cfg.Traffic = chainTraffic{numArcs: tc.arcs, hops: 4}
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
// kernel's time and allocated bytes per injected packet. Before each cold
// run, outside the timer, the heap is returned to the OS, so the run faults
// its pages in afresh as a new process would; where getrusage reports minor
// faults, cold runs also report them per page of the kernel's footprint
// (faults/page: 1 when every page faults exactly once).
func BenchmarkSlottedHypercubeScale(b *testing.B) {
	const d = 16
	sampler := &uniformBatch{mask: 1<<d - 1}
	cfg := Config{
		NumArcs:             d << d,
		NumGroups:           d,
		Sources:             1 << d,
		Horizon:             4,
		Seed:                11,
		Lambda:              1.4, // ρ = λ·p with p = 1/2
		Slotted:             true,
		Tau:                 1,
		Mode:                RouteHypercubeGreedy,
		Dest:                sampler,
		Batch:               sampler,
		SkipGroupPopulation: true,
	}
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
			var faults int64
			b.ResetTimer()
			for range b.N {
				if cold {
					b.StopTimer()
					k = &Kernel{}
					debug.FreeOSMemory()
					b.StartTimer()
				}
				f0, _ := minorFaults()
				k.Run(cfg)
				f1, _ := minorFaults()
				faults += f1 - f0
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(int64(b.N) * packets)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/packet")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/packet")
			if cold && faultsOK {
				pages := float64(k.memFootprint()) / float64(os.Getpagesize())
				b.ReportMetric(float64(faults)/(float64(b.N)*pages), "faults/page")
			}
		})
	}
}
